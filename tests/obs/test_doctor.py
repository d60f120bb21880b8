"""The run doctor: each detector fires on its failure mode and stays quiet
on healthy runs.

Acceptance (perf-lab issue): ``diagnose`` must flag an ADMM stall injected
with the FaultInjector, naming the offending update spans and outer
iterations in its evidence.
"""

import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.obs.analysis import diagnose
from repro.obs.analysis.doctor import Finding
from repro.obs.record import ResilienceTraceEvent, RunRecord, Span
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.tensor.synthetic import planted_sparse_cp

pytestmark = [pytest.mark.telemetry, pytest.mark.faults]


@pytest.fixture(scope="module")
def tensor():
    t, _ = planted_sparse_cp((14, 12, 10), rank=3, factor_sparsity=0.4, seed=5)
    return t


def _config(**overrides):
    base = dict(
        rank=3, max_iters=3, update="cuadmm", device="a100",
        mttkrp_format="blco", seed=0, telemetry=True,
        update_params={"inner_iters": 4},
    )
    base.update(overrides)
    return CstfConfig(**base)


class TestHealthyRun:
    def test_no_findings(self, tensor):
        result = cstf(tensor, _config())
        assert diagnose(result.telemetry) == []


class TestHostHotspot:
    """The measured dominant phase, from the phase table's host column."""

    def _record(self, sim, host, run_s=2.0):
        rec = RunRecord()
        rec.metrics_summary = {"counters": {}, "gauges": {}, "histograms": {}}
        rec.sim_phase_seconds = dict(sim)
        rec.spans.append(Span(id=0, name="run", parent=None, t0=0.0, dur=run_s,
                              open=False))
        for name, dur in host:
            rec.spans.append(Span(id=len(rec.spans), name=name, parent=0, t0=0.1,
                                  dur=dur, open=False))
        return rec

    def test_names_measured_and_differing_simulated_phase(self):
        rec = self._record({"MTTKRP": 3e-3, "UPDATE": 1e-3},
                           [("update", 0.7), ("update", 0.5), ("mttkrp", 0.4)])
        (finding,) = diagnose(rec)
        assert finding.code == "host_hotspot" and finding.severity == "info"
        assert finding.evidence["phase"] == "UPDATE"
        assert finding.evidence["share"] == pytest.approx(0.6)
        assert finding.evidence["simulated_phase"] == "MTTKRP"
        assert finding.evidence["span_ids"] == [1, 2]
        assert "UPDATE takes 60% of the run's host time" in finding.summary
        assert "simulated device time is dominated by MTTKRP (75%)" in finding.summary

    def test_agreeing_simulated_phase_is_not_repeated(self):
        rec = self._record({"UPDATE": 3e-3, "MTTKRP": 1e-3},
                           [("update", 1.0), ("gram_init", 0.2), ("gram", 0.3)])
        (finding,) = diagnose(rec)
        assert finding.evidence["phase"] == "UPDATE"
        assert finding.evidence["simulated_phase"] is None
        assert "simulated" not in finding.summary

    def test_short_run_is_silent(self):
        rec = self._record({"UPDATE": 1e-3}, [("update", 0.5)], run_s=0.9)
        assert diagnose(rec) == []

    def test_telemetry_on_run(self, tensor, monkeypatch):
        from repro.obs.analysis import TraceAnalysis, doctor

        monkeypatch.setattr(doctor, "HOST_HOTSPOT_MIN_SECONDS", 0.0)
        result = cstf(tensor, _config())
        (finding,) = diagnose(result.telemetry)
        assert finding.code == "host_hotspot"
        rows = TraceAnalysis(result.telemetry).phase_table()
        hot = max(rows, key=lambda r: r["host_seconds"])
        run_s = sum(s.dur for s in result.telemetry.spans if s.name == "run")
        assert finding.evidence["phase"] == hot["phase"]
        assert finding.evidence["run_seconds"] == run_s
        assert 0.0 < finding.evidence["share"] <= 1.0
        by_id = {s.id: s for s in result.telemetry.spans}
        assert finding.evidence["span_ids"]
        assert sum(by_id[i].dur for i in finding.evidence["span_ids"]) == pytest.approx(
            hot["host_seconds"])


class TestAdmmStallAcceptance:
    @pytest.fixture(scope="class")
    def stalled(self, tensor):
        # A NaN injected into MTTKRP flows into the update under the "warn"
        # sentinel (no repair), so the ADMM inner loop genuinely diverges
        # and walks the whole escalation ladder.
        injector = FaultInjector(
            [FaultSpec(phase="MTTKRP", kind="nan", probability=1.0, count=1)],
            seed=0,
        )
        return cstf(tensor, _config(resilience="warn", fault_injector=injector))

    def test_stall_flagged_with_span_and_iteration(self, stalled):
        findings = diagnose(stalled.telemetry)
        stall = next(f for f in findings if f.code == "admm_stall")
        # The give-ups make it an error, and it must rank first.
        assert stall.severity == "error"
        assert findings[0] is stall
        span_ids = stall.evidence["span_ids"]
        assert span_ids, "stall finding must name evidence spans"
        by_id = {s.id: s for s in stalled.telemetry.spans}
        assert all(by_id[i].name == "update" for i in span_ids)
        assert stall.evidence["iterations"], "stall finding must name iterations"
        assert stall.evidence["giveups"] > 0
        # The summary itself names the spans and iterations for humans.
        assert "iteration" in stall.summary and "#" in stall.summary

    def test_rho_thrash_reported_alongside(self, stalled):
        codes = [f.code for f in diagnose(stalled.telemetry)]
        assert "rho_thrash" in codes

    def test_works_from_result_object_directly(self, stalled):
        # load_run unwraps CstfResult.telemetry: no files, no explicit record.
        assert any(f.code == "admm_stall" for f in diagnose(stalled))


class TestSyntheticDetectors:
    """Detectors driven by hand-built records: exact control of the signal."""

    def _record(self):
        rec = RunRecord()
        rec.metrics_summary = {"counters": {}, "gauges": {}, "histograms": {}}
        return rec

    def test_fit_oscillation_from_fit_spans(self):
        rec = self._record()
        fits = [0.5, 0.6, 0.4, 0.7, 0.65]
        for i, fit in enumerate(fits):
            rec.spans.append(Span(id=i, name="fit", parent=None, t0=float(i),
                                  attrs={"fit": fit, "iteration": i + 1},
                                  dur=0.1, open=False))
        (finding,) = diagnose(rec)
        assert finding.code == "fit_oscillation"
        assert finding.evidence["drops"] == 2
        assert finding.evidence["span_ids"] == [2, 4]
        assert finding.evidence["iterations"] == [3, 5]
        assert finding.evidence["worst_drop"] == pytest.approx(-0.2)

    def test_fit_oscillation_fallback_histogram(self):
        rec = self._record()
        rec.metrics_summary["histograms"]["cstf.fit_delta"] = {
            "count": 5, "min": -0.1, "max": 0.2, "mean": 0.05,
        }
        (finding,) = diagnose(rec)
        assert finding.code == "fit_oscillation"
        assert finding.evidence["worst_drop"] == -0.1

    def test_monotone_fit_is_silent(self):
        rec = self._record()
        for i, fit in enumerate([0.1, 0.2, 0.3]):
            rec.spans.append(Span(id=i, name="fit", parent=None, t0=float(i),
                                  attrs={"fit": fit}, dur=0.1, open=False))
        assert diagnose(rec) == []

    def test_blco_imbalance_gauge(self):
        rec = self._record()
        rec.metrics_summary["gauges"]["mttkrp.blco.block_imbalance"] = 3.5
        rec.metrics_summary["gauges"]["mttkrp.blco.blocks"] = 8.0
        rec.spans.append(Span(id=0, name="mttkrp_kernel", parent=None, t0=0.0,
                              attrs={"format": "blco", "mode": 0}, dur=0.1,
                              open=False))
        (finding,) = diagnose(rec)
        assert finding.code == "blco_load_imbalance"
        assert finding.evidence["span_ids"] == [0]
        assert "3.5x" in finding.summary and "8 blocks" in finding.summary

    def test_balanced_blocks_silent(self):
        rec = self._record()
        rec.metrics_summary["gauges"]["mttkrp.blco.block_imbalance"] = 1.2
        assert diagnose(rec) == []

    def test_checkpoint_gap(self):
        rec = self._record()
        rec.events.append(ResilienceTraceEvent(
            kind="checkpoint_resumed", phase="CHECKPOINT", ts=0.0, iteration=3))
        findings = diagnose(rec)
        codes = [f.code for f in findings]
        assert codes == ["checkpoint_gap", "checkpoint_resume"]  # warn before info

    def test_resume_with_later_save_is_not_a_gap(self):
        rec = self._record()
        rec.events.append(ResilienceTraceEvent(
            kind="checkpoint_resumed", phase="CHECKPOINT", ts=0.0, iteration=3))
        rec.events.append(ResilienceTraceEvent(
            kind="checkpoint_saved", phase="CHECKPOINT", ts=1.0, iteration=5))
        codes = [f.code for f in diagnose(rec)]
        assert codes == ["checkpoint_resume"]

    def test_rho_thrash_needs_repeated_rescales(self):
        rec = self._record()
        # Two rescales: legitimate adaptation, not thrash.
        for i in range(2):
            rec.events.append(ResilienceTraceEvent(
                kind="admm_rho_rescale", phase="UPDATE", ts=float(i), mode=0))
        assert diagnose(rec) == []
        rec.events.append(ResilienceTraceEvent(
            kind="admm_rho_rescale", phase="UPDATE", ts=2.0, mode=0))
        (finding,) = diagnose(rec)
        assert finding.code == "rho_thrash"
        assert finding.evidence["rescales"] == 3

    def test_degraded_execution_from_events(self):
        rec = self._record()
        rec.events.append(ResilienceTraceEvent(
            kind="run_retry", phase="SUPERVISE", ts=0.0,
            data={"tier": "sharded engine", "attempt": 1}))
        rec.events.append(ResilienceTraceEvent(
            kind="execution_degraded", phase="SUPERVISE", ts=1.0,
            data={"from_tier": "sharded engine", "to_tier": "chunked engine"}))
        rec.metrics_summary["counters"]["resilience.retries"] = 1
        rec.metrics_summary["counters"]["resilience.degradations"] = 1
        (finding,) = diagnose(rec)
        assert finding.code == "degraded_execution"
        assert finding.severity == "warn"
        assert finding.evidence["degraded_to"] == ["chunked engine"]
        assert finding.evidence["counters"]["degradations"] == 1
        assert "chunked engine" in finding.summary

    def test_shard_recoveries_alone_are_info(self):
        rec = self._record()
        rec.events.append(ResilienceTraceEvent(
            kind="shard_retry", phase="MTTKRP", ts=0.0, mode=1))
        rec.metrics_summary["counters"]["engine.shard.retries"] = 1
        rec.metrics_summary["counters"]["engine.plan.repairs"] = 2
        (finding,) = diagnose(rec)
        assert finding.code == "degraded_execution"
        assert finding.severity == "info"
        assert finding.evidence["shard_events"] == 1
        assert "2 plan repairs" in finding.summary

    def test_clean_run_has_no_degradation_finding(self):
        rec = self._record()
        rec.metrics_summary["counters"]["mttkrp.calls"] = 12.0
        assert all(f.code != "degraded_execution" for f in diagnose(rec))


class TestLostWorkers:
    """The process-backend worker-death detector."""

    def _record(self):
        rec = RunRecord()
        rec.metrics_summary = {"counters": {}, "gauges": {}, "histograms": {}}
        return rec

    def test_lost_workers_flagged_with_exitcodes(self):
        rec = self._record()
        for i, it in enumerate([2, 5]):
            rec.events.append(ResilienceTraceEvent(
                kind="worker_lost", phase="MTTKRP", ts=float(i), mode=0,
                iteration=it, data={"shard": i, "exitcode": -9}))
        rec.metrics_summary["counters"]["engine.backend.workers_lost"] = 2
        rec.metrics_summary["counters"]["engine.backend.respawns"] = 2
        findings = diagnose(rec)
        lost = next(f for f in findings if f.code == "lost_workers")
        assert lost.severity == "warn"
        assert lost.evidence["workers_lost"] == 2
        assert lost.evidence["respawns"] == 2
        assert lost.evidence["exitcodes"] == [-9]
        assert lost.evidence["iterations"] == [2, 5]
        assert "bit-identical" in lost.summary

    def test_counter_alone_is_enough(self):
        """A worker lost outside an event-logged dispatch (counter only)
        still fires the detector."""
        rec = self._record()
        rec.metrics_summary["counters"]["engine.backend.workers_lost"] = 1
        (finding,) = [f for f in diagnose(rec) if f.code == "lost_workers"]
        assert finding.evidence["workers_lost"] == 1

    def test_quiet_without_losses(self):
        rec = self._record()
        rec.metrics_summary["counters"]["engine.backend.respawns"] = 1
        assert all(f.code != "lost_workers" for f in diagnose(rec))

    def test_degraded_execution_counts_store_quarantines(self):
        rec = self._record()
        rec.metrics_summary["counters"]["engine.store.quarantined"] = 1
        rec.metrics_summary["counters"]["engine.backend.workers_lost"] = 1
        findings = diagnose(rec)
        degraded = next(f for f in findings if f.code == "degraded_execution")
        assert degraded.evidence["counters"]["store entries quarantined"] == 1
        assert degraded.evidence["counters"]["workers lost"] == 1
        assert "1 workers lost" in degraded.summary


class TestSilentWorkers:
    """The cross-process observability-hole detector."""

    def _record(self):
        rec = RunRecord()
        rec.metrics_summary = {"counters": {}, "gauges": {}, "histograms": {}}
        return rec

    def _shard(self, rec, span_id, shard, *, kernel=True, pid=900):
        rec.spans.append(Span(
            id=span_id, name="shard", parent=None, t0=0.0,
            attrs={"shard": shard, "nnz": 100}, dur=0.01, open=False,
        ))
        if kernel:
            rec.spans.append(Span(
                id=span_id + 1, name="shard_kernel", parent=span_id, t0=0.0,
                attrs={"shard": shard}, dur=0.008, open=False,
                worker={"pid": pid + shard, "id": shard},
            ))

    def test_silent_shard_flagged_with_span_evidence(self):
        rec = self._record()
        self._shard(rec, 0, 0)
        self._shard(rec, 10, 1, kernel=False)  # shard 1 shipped nothing
        rec.metrics_summary["counters"]["obs.worker.silent"] = 1
        findings = diagnose(rec)
        silent = next(f for f in findings if f.code == "silent_worker")
        assert silent.severity == "warn"
        assert silent.evidence["span_ids"] == [10]
        assert silent.evidence["shards"] == [1]
        assert silent.evidence["silent_counter"] == 1
        assert "no kernel spans" in silent.summary

    def test_counted_under_degraded_execution(self):
        rec = self._record()
        self._shard(rec, 0, 0, kernel=False)
        rec.metrics_summary["counters"]["obs.worker.silent"] = 1
        degraded = next(
            f for f in diagnose(rec) if f.code == "degraded_execution"
        )
        assert degraded.evidence["counters"]["silent workers"] == 1
        assert "1 silent workers" in degraded.summary

    def test_counter_without_spans_still_fires(self):
        """A silent shard whose span record was lost entirely (e.g. trace
        loaded from a truncated file) is still reported via the counter."""
        rec = self._record()
        self._shard(rec, 0, 0)  # the one recorded shard is attributed
        rec.metrics_summary["counters"]["obs.worker.silent"] = 2
        silent = next(f for f in diagnose(rec) if f.code == "silent_worker")
        assert silent.evidence["span_ids"] == []
        assert silent.evidence["silent_counter"] == 2
        assert silent.score == 2.0

    def test_quiet_when_every_shard_attributed(self):
        rec = self._record()
        for i, sid in enumerate((0, 10, 20)):
            self._shard(rec, sid, i)
        assert all(f.code != "silent_worker" for f in diagnose(rec))

    def test_quiet_without_shard_spans(self):
        """Serial, unsharded runs have no shard spans and no finding."""
        rec = self._record()
        rec.spans.append(Span(
            id=0, name="mttkrp", parent=None, t0=0.0, dur=0.1, open=False,
        ))
        assert all(f.code != "silent_worker" for f in diagnose(rec))


class TestResourcePressure:
    """The resource-pressure detector: survived degradations, ranked."""

    def _record(self):
        rec = RunRecord()
        rec.metrics_summary = {"counters": {}, "gauges": {}, "histograms": {}}
        return rec

    def test_events_and_counters_aggregate(self):
        rec = self._record()
        rec.events.append(ResilienceTraceEvent(
            kind="worker_recycled", phase="MTTKRP", ts=0.0, mode=0,
            iteration=1, data={"worker": 2, "rss": 9000000, "budget": 8000000}))
        rec.events.append(ResilienceTraceEvent(
            kind="transport_downgraded", phase="MTTKRP", ts=1.0, mode=1,
            iteration=2, data={}))
        rec.metrics_summary["counters"]["engine.shm.trims"] = 3
        rec.metrics_summary["counters"]["obs.sink.dropped"] = 4
        (finding,) = [f for f in diagnose(rec) if f.code == "resource_pressure"]
        assert finding.severity == "warn"
        counters = finding.evidence["counters"]
        assert counters["workers recycled over the memory budget"] == 1
        assert counters["shm dispatches downgraded to pipe transport"] == 1
        assert counters["idle shm segments trimmed"] == 3
        assert counters["telemetry records dropped by a degraded sink"] == 4
        assert finding.evidence["iterations"] == [1, 2]
        assert "bit-identical" in finding.summary

    def test_counter_alone_is_enough(self):
        rec = self._record()
        rec.metrics_summary["counters"]["engine.proc.workers_recycled"] = 2
        (finding,) = [f for f in diagnose(rec) if f.code == "resource_pressure"]
        assert finding.evidence["counters"][
            "workers recycled over the memory budget"] == 2

    def test_near_budget_rss_alone_is_info(self):
        """No degradation fired, but peak RSS is already at 90% of the
        budget — worth a heads-up before the next run recycles."""
        rec = self._record()
        rec.metrics_summary["gauges"]["engine.proc.worker_rss_peak"] = 9.0e6
        rec.metrics_summary["gauges"]["engine.proc.memory_budget"] = 1.0e7
        (finding,) = [f for f in diagnose(rec) if f.code == "resource_pressure"]
        assert finding.severity == "info"
        assert finding.evidence["rss_budget_ratio"] == pytest.approx(0.9)

    def test_comfortable_rss_is_silent(self):
        rec = self._record()
        rec.metrics_summary["gauges"]["engine.proc.worker_rss_peak"] = 5.0e6
        rec.metrics_summary["gauges"]["engine.proc.memory_budget"] = 1.0e7
        assert all(f.code != "resource_pressure" for f in diagnose(rec))

    def test_clean_run_is_silent(self):
        assert all(
            f.code != "resource_pressure" for f in diagnose(self._record())
        )

    def test_enospc_skips_counted(self):
        rec = self._record()
        rec.metrics_summary["counters"]["resilience.checkpoint.skips"] = 1
        rec.metrics_summary["counters"]["engine.store.write_errors"] = 2
        (finding,) = [f for f in diagnose(rec) if f.code == "resource_pressure"]
        assert finding.evidence["counters"][
            "checkpoint writes skipped (ENOSPC)"] == 1
        assert finding.evidence["counters"][
            "plan-store writes skipped (ENOSPC)"] == 2


class TestRanking:
    def test_severity_then_score(self):
        findings = sorted(
            [
                Finding(code="c", severity="info", summary="", score=99.0),
                Finding(code="a", severity="error", summary="", score=1.0),
                Finding(code="b", severity="warn", summary="", score=5.0),
                Finding(code="b2", severity="warn", summary="", score=50.0),
            ],
            key=lambda f: ({"error": 0, "warn": 1, "info": 2}[f.severity], -f.score),
        )
        assert [f.code for f in findings] == ["a", "b2", "b", "c"]

    def test_real_diagnose_orders_error_first(self, tensor):
        injector = FaultInjector(
            [FaultSpec(phase="MTTKRP", kind="nan", probability=1.0, count=1)],
            seed=0,
        )
        result = cstf(tensor, _config(resilience="warn", fault_injector=injector))
        severities = [f.severity for f in diagnose(result.telemetry)]
        order = {"error": 0, "warn": 1, "info": 2}
        assert severities == sorted(severities, key=order.__getitem__)
