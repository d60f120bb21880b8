"""One BLAS thread per process while a factorization runs.

``cstf()`` pins every OpenBLAS mapped into the process to one thread and
restores the previous counts when the outermost run exits; process-pool
workers pin themselves at start. Pinning only rearranges work, so a run
with pinning disabled must give the same bits.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import EngineConfig, PlanCache, engine_mttkrp, shutdown_backends
from repro.engine import blas
from repro.obs import telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec
from repro.tensor.synthetic import random_sparse


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((40, 30, 20), nnz=2500, seed=3)


@pytest.fixture
def libs():
    """The host's OpenBLAS copies, set to two threads for the test (so a
    missed restore shows) and put back afterwards."""
    found = blas._libraries()
    if not found:
        pytest.skip("no OpenBLAS mapped into this process")
    before = [lib.get_threads() for lib in found]
    for lib in found:
        lib.set_threads(2)
    yield found
    for lib, threads in zip(found, before):
        lib.set_threads(threads)


@pytest.fixture
def no_openblas(monkeypatch):
    """A host where discovery finds no OpenBLAS."""
    monkeypatch.setattr(blas, "_libraries", lambda: ())


def _threads(libs):
    return [lib.get_threads() for lib in libs]


def _config(**kw):
    base = dict(rank=4, max_iters=3, update="admm", device="cpu",
                mttkrp_format="coo", seed=7)
    base.update(kw)
    return CstfConfig(**base)


class TestPinnedRun:
    def test_every_openblas_one_thread_inside_on_iteration(self, tensor, libs):
        seen = []
        cstf(tensor, _config(on_iteration=lambda _i: seen.append(_threads(libs))))
        assert seen == [[1] * len(libs)] * 3

    def test_counts_restored_after_return(self, tensor, libs):
        cstf(tensor, _config())
        assert _threads(libs) == [2] * len(libs)

    def test_counts_restored_after_on_iteration_raises(self, tensor, libs):
        def stop(iteration):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cstf(tensor, _config(on_iteration=stop))
        assert _threads(libs) == [2] * len(libs)

    def test_counts_restored_after_nested_cstf(self, tensor, libs):
        inner_after = []

        def nested(iteration):
            if iteration == 1:
                cstf(tensor, _config(max_iters=1))
                # The inner run's exit must not unpin the outer one.
                inner_after.append(_threads(libs))

        cstf(tensor, _config(on_iteration=nested))
        assert inner_after == [[1] * len(libs)]
        assert _threads(libs) == [2] * len(libs)

    def test_concurrent_runs_restore_when_the_last_exits(self, tensor, libs):
        barrier = threading.Barrier(3, timeout=60)
        errors = []

        def run():
            try:
                cstf(tensor, _config(on_iteration=lambda _i: barrier.wait()))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                barrier.abort()

        workers = [threading.Thread(target=run) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert _threads(libs) == [2] * len(libs)

    def test_gauge_counts_pinned_libraries(self, tensor, libs):
        res = cstf(tensor, _config(telemetry="on"))
        gauges = res.telemetry.metrics_summary["gauges"]
        assert gauges["engine.blas.pinned"] == len(libs) >= 1


class TestNoOpenBlasHost:
    def test_runs_normally_and_reports_zero(self, tensor, no_openblas):
        res = cstf(tensor, _config(telemetry="on"))
        assert res.iterations == 3
        assert res.telemetry.metrics_summary["gauges"]["engine.blas.pinned"] == 0
        assert blas.pin_process() == 0


_ENGINES = [
    pytest.param(None, id="off"),
    pytest.param(EngineConfig(backend="serial", shards=3), id="serial"),
    pytest.param(EngineConfig(backend="threads", shards=3), id="threads"),
    pytest.param(EngineConfig(backend="processes", shards=2), id="processes",
                 marks=pytest.mark.procfaults),
]


class TestBitwiseUnchanged:
    @pytest.mark.parametrize("engine", _ENGINES)
    def test_unpinned_run_gives_the_same_bits(self, tensor, engine, monkeypatch):
        cfg = _config(engine=engine, update="cuadmm")
        shutdown_backends()
        pinned = cstf(tensor, cfg)
        shutdown_backends()
        monkeypatch.setattr(blas, "_libraries", lambda: ())
        unpinned = cstf(tensor, cfg)
        shutdown_backends()
        for a, b in zip(pinned.kruskal.factors, unpinned.kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(pinned.kruskal.weights, unpinned.kruskal.weights)
        assert pinned.fits == unpinned.fits
        assert pinned.per_iteration_seconds() == unpinned.per_iteration_seconds()


@pytest.mark.procfaults
class TestProcessWorkers:
    def test_workers_and_respawned_worker_report_pinned(
        self, tensor, monkeypatch
    ):
        import repro.engine.backends.base as base_mod

        batches = []
        merge = base_mod.merge_worker_batch

        def spy(tel, batch, **kw):
            batches.append(batch)
            return merge(tel, batch, **kw)

        monkeypatch.setattr(base_mod, "merge_worker_batch", spy)
        shutdown_backends()
        rng = np.random.default_rng(1)
        factors = [rng.random((d, 6)) for d in tensor.shape]
        cfg = EngineConfig(backend="processes", shards=3, chunk=256)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "kill_worker", probability=1.0), seed=5
        )
        events = EventLog()
        with telemetry_session():
            # Every original worker ships once, then one is SIGKILLed and
            # the next dispatch runs on its respawned replacement.
            engine_mttkrp(tensor, factors, 0, "coo", cfg, PlanCache())
            engine_mttkrp(tensor, factors, 1, "coo", cfg, PlanCache(),
                          faults=inj, events=events)
            engine_mttkrp(tensor, factors, 2, "coo", cfg, PlanCache())
        shutdown_backends()
        (lost,) = events.of_kind("worker_lost")

        first: dict[int, dict] = {}
        for batch in batches:
            # The parent's serial redo of the killed shard ships a batch
            # too; only worker processes pin themselves.
            if batch is not None and batch["pid"] != os.getpid():
                first.setdefault(batch["pid"], batch)
        slot_pids = [pid for pid, b in first.items()
                     if b["worker"] == lost.data["shard"]]
        assert len(slot_pids) == 2, "the respawned worker shipped no batch"
        assert len(first) == 4
        for pid, batch in first.items():
            assert batch["gauges"].get("engine.blas.pinned", 0) >= 1, pid

    def test_worker_forked_in_pinned_run_starts_no_blas_threads(self, tensor):
        # Setting a count OpenBLAS already has would restart its pool in the
        # fresh worker, and new pool threads spin before they sleep.
        import multiprocessing

        rng = np.random.default_rng(1)
        factors = [rng.random((d, 6)) for d in tensor.shape]
        cfg = EngineConfig(backend="processes", shards=2)
        shutdown_backends()
        with blas.single_threaded():
            engine_mttkrp(tensor, factors, 0, "coo", cfg, PlanCache())
            workers = multiprocessing.active_children()
            threads = [len(os.listdir(f"/proc/{w.pid}/task")) for w in workers]
        shutdown_backends()
        assert threads == [1, 1]
