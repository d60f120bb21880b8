"""Engine-enabled cSTF runs: bit-identity with the seed driver, plan-cache
hit rates, telemetry counters, simulated-cost invariance, gram rescale."""

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.core.trace import PHASES
from repro.engine import get_plan_cache
from repro.tensor.synthetic import random_sparse


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((40, 25, 15), nnz=2500, seed=7)


def _run(tensor, engine, fmt="coo", iters=6, telemetry="off", **kwargs):
    return cstf(
        tensor,
        CstfConfig(
            rank=6, max_iters=iters, update="cuadmm", device="a100",
            mttkrp_format=fmt, compute_fit=True, seed=1, telemetry=telemetry,
            engine=engine, **kwargs,
        ),
    )


def _assert_bit_equal(a, b):
    assert np.array_equal(a.kruskal.weights, b.kruskal.weights)
    for fa, fb in zip(a.kruskal.factors, b.kruskal.factors):
        assert np.array_equal(fa, fb)
    assert a.fits == b.fits


class TestBitIdentity:
    @pytest.mark.parametrize("fmt", ["coo", "alto", "blco", "csf"])
    def test_engine_matches_seed_per_format(self, tensor, fmt):
        _assert_bit_equal(_run(tensor, None, fmt), _run(tensor, "on", fmt))

    @pytest.mark.parametrize("fmt", ["coo", "alto"])
    def test_sharded_matches_seed(self, tensor, fmt):
        seed = _run(tensor, None, fmt)
        sharded = _run(tensor, {"shards": 3, "chunk": 512}, fmt)
        _assert_bit_equal(seed, sharded)

    def test_simulated_timeline_unchanged(self, tensor):
        seed = _run(tensor, None)
        engine = _run(tensor, "on")
        for phase in PHASES:
            assert engine.timeline.seconds(phase) == seed.timeline.seconds(phase)


class TestPlanCacheBehavior:
    def test_hit_rate_after_first_iteration(self, tensor):
        """Acceptance: >= 90% plan-cache hit rate once the first AO
        iteration has populated the cache (one miss per mode)."""
        get_plan_cache().clear()
        result = _run(tensor, "on", iters=10, telemetry="on")
        counters = result.telemetry.metrics_summary["counters"]
        hits = counters["engine.plan.hits"]
        misses = counters["engine.plan.misses"]
        assert misses == tensor.ndim  # one per mode, first iteration only
        assert hits / (hits + misses) >= 0.9

    def test_global_cache_reused_across_runs(self, tensor):
        get_plan_cache().clear()
        _run(tensor, "on", iters=2)
        before = get_plan_cache().misses
        _run(tensor, "on", iters=2)  # same tensor object → all hits
        assert get_plan_cache().misses == before

    def test_counters_flow_through_telemetry(self, tensor):
        get_plan_cache().clear()
        result = _run(tensor, "on", iters=3, telemetry="on")
        counters = result.telemetry.metrics_summary["counters"]
        assert counters["engine.plan.hits"] > 0
        assert counters["engine.plan.misses"] > 0

    @pytest.mark.parametrize("fmt", ["coo", "blco", "csf"])
    def test_kernel_telemetry_matches_seed_kernels(self, tensor, fmt):
        """One ``mttkrp_kernel`` span and ``mttkrp.calls.<fmt>`` count per
        MTTKRP, and the BLCO block gauges, whichever path ran."""
        runs = [_run(tensor, engine, fmt, iters=2, telemetry="on")
                for engine in (None, "on")]
        seen = []
        for res in runs:
            rec = res.telemetry
            spans = [s.attrs for s in rec.spans if s.name == "mttkrp_kernel"]
            gauges = {k: v for k, v in rec.metrics_summary["gauges"].items()
                      if k.startswith("mttkrp.")}
            seen.append((spans, rec.metrics_summary["counters"][f"mttkrp.calls.{fmt}"],
                         gauges))
        assert seen[0] == seen[1]
        assert len(seen[0][0]) == 2 * tensor.ndim

    def test_shard_gauges_recorded(self, tensor):
        result = _run(tensor, {"shards": 3}, iters=2, telemetry="on")
        gauges = result.telemetry.metrics_summary["gauges"]
        assert gauges["engine.shard.workers"] == 3.0
        assert gauges["engine.shard.imbalance"] >= 1.0


class TestConfigPlumbing:
    def test_engine_setting_normalized_on_config(self):
        cfg = CstfConfig(engine="sharded")
        assert cfg.engine is not None and cfg.engine.shards >= 2
        assert CstfConfig(engine=None).engine is None
        assert CstfConfig(engine="off").engine is None

    def test_invalid_engine_setting_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            CstfConfig(engine="warp-speed")

    def test_analytic_runs_ignore_engine(self):
        from repro.machine.analytic import TensorStats

        stats = TensorStats.from_dims((50, 40, 30), 4000)
        result = cstf(stats, CstfConfig(rank=4, max_iters=2, engine="on",
                                        compute_fit=False))
        assert result.kruskal is None
