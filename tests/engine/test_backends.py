"""The execution-backend seam: registry lifecycle, config plumbing, and
the bitwise-identity contract between the serial and threads backends.

(The ``processes`` backend has its own suite, marked ``procfaults`` and
excluded from tier-1 — see test_process_backend.py.)
"""

import numpy as np
import pytest

from repro.cli import _engine_setting, build_parser
from repro.engine import (
    EngineConfig,
    PlanCache,
    engine_mttkrp,
    get_backend,
    resolve_engine,
    run_shards,
    shutdown_backends,
    shutdown_pools,
)
from repro.engine.backends import BACKEND_NAMES
from repro.engine.backends.base import tree_reduce
from repro.engine.backends.serial import SerialBackend
from repro.engine.backends.threads import ThreadsBackend
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.tensor.synthetic import random_sparse


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((30, 24, 18), nnz=1500, seed=11)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(4)
    return [rng.random((d, 5)) for d in tensor.shape]


class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("serial", "threads", "processes")

    def test_singletons_per_name(self):
        assert get_backend("serial") is get_backend("serial")
        assert get_backend("threads") is get_backend("threads")
        assert get_backend("serial") is not get_backend("threads")

    def test_instances_match_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("threads"), ThreadsBackend)
        assert get_backend("serial").name == "serial"
        assert get_backend("threads").name == "threads"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("fibers")

    def test_shutdown_clears_registry(self):
        before = get_backend("threads")
        shutdown_backends()
        after = get_backend("threads")
        assert after is not before
        shutdown_backends()  # idempotent
        shutdown_backends()

    def test_shutdown_pools_alias(self):
        """The historical execute.shutdown_pools name keeps working and is
        safe to call repeatedly."""
        get_backend("threads")
        shutdown_pools()
        shutdown_pools()


class TestConfig:
    def test_backend_validated(self):
        for name in BACKEND_NAMES:
            assert EngineConfig(backend=name).backend == name
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="fibers")

    def test_plan_store_normalized_to_path_string(self, tmp_path):
        cfg = EngineConfig(plan_store=tmp_path / "plans")
        assert cfg.plan_store == str(tmp_path / "plans")
        assert EngineConfig().plan_store is None

    def test_shm_validated_and_normalized(self):
        assert EngineConfig().shm == "auto"
        for value in ("auto", "on", "off"):
            assert EngineConfig(shm=value).shm == value
        # Booleans normalize to the string form.
        assert EngineConfig(shm=True).shm == "on"
        assert EngineConfig(shm=False).shm == "off"
        with pytest.raises(ValueError, match="shm must be one of"):
            EngineConfig(shm="maybe")

    def test_resolve_engine_processes(self):
        cfg = resolve_engine("processes")
        assert cfg.backend == "processes"
        assert cfg.shards > 1

    def test_resolve_engine_dict_with_backend(self, tmp_path):
        cfg = resolve_engine(
            {"shards": 3, "backend": "serial", "plan_store": str(tmp_path)}
        )
        assert cfg.shards == 3
        assert cfg.backend == "serial"
        assert cfg.plan_store == str(tmp_path)


class TestTreeReduce:
    def test_empty_input_rejected(self):
        """An empty shard list has no well-defined shape or dtype; the
        reduce refuses it instead of crashing deep inside pairwise math."""
        with pytest.raises(ValueError, match="at least one shard partial"):
            tree_reduce([])

    def test_single_partial_is_identity(self):
        only = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert np.array_equal(tree_reduce([only]), only)

    def test_sums_all_partials(self):
        partials = [np.full((2, 2), float(i)) for i in range(5)]
        assert np.array_equal(tree_reduce(partials), np.full((2, 2), 10.0))


class TestBitIdentity:
    """Serial and threads dispatch reproduce the seed kernel bit for bit."""

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_engine_matches_seed_all_modes(self, tensor, factors, backend):
        cfg = EngineConfig(shards=3, chunk=256, backend=backend)
        cache = PlanCache()
        for mode in range(tensor.ndim):
            ref = mttkrp_coo(tensor, factors, mode)
            got = engine_mttkrp(tensor, factors, mode, "coo", cfg, cache)
            assert np.array_equal(ref, got)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_run_shards_positional_compat(self, tensor, factors, backend):
        """The pre-seam positional run_shards signature still dispatches
        (now through the named backend) and reduces to the seed bits."""
        ref = mttkrp_coo(tensor, factors, 0)
        cfg = EngineConfig(shards=4, backend=backend)
        plan = PlanCache().plan(tensor, 0)
        streams = plan.shard_streams(cfg.shards)
        got = run_shards(
            streams, [np.asarray(f) for f in factors], 0,
            tensor.shape[0], 5, cfg,
        )
        assert np.array_equal(ref, got)

    def test_backends_agree_with_each_other(self, tensor, factors):
        cache = PlanCache()
        results = [
            engine_mttkrp(
                tensor, factors, 1, "coo",
                EngineConfig(shards=3, backend=backend), cache,
            )
            for backend in ("serial", "threads")
        ]
        assert np.array_equal(results[0], results[1])


class TestCliFlags:
    def _args(self, *extra):
        return build_parser().parse_args(
            ["factorize", "x.tns", "--rank", "2", *extra]
        )

    def test_default_is_engine_on(self):
        assert _engine_setting(self._args()) == "on"

    def test_engine_off_selects_seed_kernels(self):
        assert _engine_setting(self._args("--engine", "off")) is None

    def test_engine_string_passthrough(self):
        assert _engine_setting(self._args("--engine", "sharded")) == "sharded"
        assert _engine_setting(self._args("--engine", "processes")) == "processes"

    def test_backend_implies_sharded_engine(self):
        setting = _engine_setting(self._args("--backend", "processes"))
        assert setting["backend"] == "processes"
        assert setting["shards"] > 1
        assert resolve_engine(setting).backend == "processes"

    def test_serial_backend_keeps_one_shard(self):
        setting = _engine_setting(self._args("--backend", "serial"))
        assert setting == {"backend": "serial"}

    def test_explicit_shards_win(self):
        setting = _engine_setting(
            self._args("--backend", "threads", "--shards", "2")
        )
        assert setting["shards"] == 2

    def test_plan_store_flag(self, tmp_path):
        setting = _engine_setting(
            self._args("--plan-store", str(tmp_path / "plans"))
        )
        assert setting == {"plan_store": str(tmp_path / "plans")}
        assert resolve_engine(setting).plan_store == str(tmp_path / "plans")

    def test_shm_flag(self):
        setting = _engine_setting(
            self._args("--backend", "processes", "--shm", "off")
        )
        assert setting["shm"] == "off"
        assert resolve_engine(setting).shm == "off"
        # --shm alone also implies the engine (like the other engine flags).
        assert _engine_setting(self._args("--shm", "on")) == {"shm": "on"}

    def test_shm_defaults_to_config_auto(self):
        setting = _engine_setting(self._args("--backend", "processes"))
        assert "shm" not in setting
        assert resolve_engine(setting).shm == "auto"
