"""The AO driver (Algorithm 1): fit progress, phases, formats, analytic mode."""

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.core.trace import PHASES
from repro.machine.analytic import TensorStats
from repro.tensor.synthetic import planted_sparse_cp, random_sparse


@pytest.fixture(scope="module")
def tensor():
    t, _ = planted_sparse_cp((20, 16, 12), rank=3, factor_sparsity=0.4, seed=9)
    return t


class TestConfig:
    def test_defaults_are_paper_values(self):
        c = CstfConfig()
        assert c.rank == 32
        assert c.update == "cuadmm"
        assert c.mttkrp_format == "blco"

    def test_engine_defaults_to_cached(self):
        from repro.engine import EngineConfig

        assert CstfConfig().engine == EngineConfig()
        assert CstfConfig(engine="off").engine is None

    def test_default_engine_is_bitwise_engine_off(self, tensor):
        on = cstf(tensor, rank=3, max_iters=4, seed=2)
        off = cstf(tensor, rank=3, max_iters=4, seed=2, engine="off")
        for a, b in zip(on.kruskal.factors, off.kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(on.kruskal.weights, off.kruskal.weights)
        assert on.per_iteration_seconds() == off.per_iteration_seconds()
        assert on.fits == off.fits

    def test_invalid_format(self):
        with pytest.raises(ValueError, match="mttkrp_format"):
            CstfConfig(mttkrp_format="hicoo")

    def test_invalid_normalize(self):
        with pytest.raises(ValueError, match="normalize"):
            CstfConfig(normalize="1")

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            CstfConfig(rank=0)

    def test_config_and_overrides_mutually_exclusive(self, tensor):
        with pytest.raises(TypeError):
            cstf(tensor, CstfConfig(), rank=4)


class TestDriver:
    def test_fit_improves(self, tensor):
        res = cstf(tensor, rank=3, update="cuadmm", max_iters=15, seed=0)
        assert res.fits[-1] > res.fits[0]
        assert res.fits[-1] > 0.8

    def test_all_phases_charged(self, tensor):
        res = cstf(tensor, rank=3, max_iters=2, seed=0)
        for phase in PHASES:
            assert res.timeline.seconds(phase) > 0.0

    def test_nonneg_factors_with_nonneg_updates(self, tensor):
        for update in ("cuadmm", "mu", "hals"):
            res = cstf(tensor, rank=3, update=update, max_iters=3, seed=0)
            for f in res.kruskal.factors:
                assert (f >= 0).all(), update

    def test_deterministic_given_seed(self, tensor):
        a = cstf(tensor, rank=3, max_iters=3, seed=5)
        b = cstf(tensor, rank=3, max_iters=3, seed=5)
        assert a.fits == b.fits

    def test_seeds_change_init(self, tensor):
        a = cstf(tensor, rank=3, max_iters=1, seed=1)
        b = cstf(tensor, rank=3, max_iters=1, seed=2)
        assert a.fits != b.fits

    @pytest.mark.parametrize("fmt", ["coo", "csf", "alto", "blco"])
    def test_formats_numerically_identical(self, tensor, fmt):
        """The storage format must never change the math."""
        ref = cstf(tensor, rank=3, max_iters=3, seed=3, mttkrp_format="coo")
        res = cstf(tensor, rank=3, max_iters=3, seed=3, mttkrp_format=fmt)
        assert res.fits == pytest.approx(ref.fits, rel=1e-9)

    def test_convergence_tolerance_stops(self, tensor):
        res = cstf(tensor, rank=3, max_iters=200, tol=1e-4, seed=0)
        assert res.converged
        assert res.iterations < 200

    def test_fit_disabled(self, tensor):
        res = cstf(tensor, rank=3, max_iters=2, compute_fit=False)
        assert res.fits == []
        assert res.fit is None

    def test_4mode_tensor(self):
        t = random_sparse((10, 8, 6, 5), nnz=300, seed=1)
        res = cstf(t, rank=2, max_iters=3, seed=0)
        assert len(res.kruskal.factors) == 4
        assert res.fits[-1] >= res.fits[0] - 0.05

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="SparseTensor or TensorStats"):
            cstf(np.zeros((3, 3)), rank=2)

    def test_per_iteration_seconds_positive(self, tensor):
        res = cstf(tensor, rank=3, max_iters=2)
        assert res.per_iteration_seconds() > 0


class TestAnalyticMode:
    def test_runs_at_paper_scale(self):
        stats = TensorStats.from_dims((532_924, 17_262_471, 2_480_308, 1443), 140_126_181)
        res = cstf(stats, rank=32, update="cuadmm", device="h100", max_iters=1, compute_fit=False)
        assert res.kruskal is None
        assert res.fits == []
        assert res.per_iteration_seconds() > 0

    def test_update_dominates_on_long_mode_tensors(self):
        """The paper's central observation (Figs 1/3): for hypersparse
        tensors with long modes on the CPU, UPDATE dwarfs MTTKRP."""
        stats = TensorStats.from_dims((532_924, 17_262_471, 2_480_308, 1443), 140_126_181)
        res = cstf(
            stats, rank=32, update="admm", device="cpu", mttkrp_format="alto", max_iters=1
        )
        assert res.timeline.seconds("UPDATE") > res.timeline.seconds("MTTKRP")

    def test_concrete_and_analytic_agree(self):
        """Same tensor statistics → identical simulated timeline, whether
        the numerics actually ran or not."""
        t = random_sparse((40, 30, 20), nnz=600, seed=4)
        concrete = cstf(t, rank=4, update="cuadmm", max_iters=2, compute_fit=False)
        analytic = cstf(
            TensorStats.from_coo(t), rank=4, update="cuadmm", max_iters=2, compute_fit=False
        )
        for phase in PHASES:
            assert analytic.timeline.seconds(phase) == pytest.approx(
                concrete.timeline.seconds(phase), rel=1e-12
            ), phase

    def test_gpu_faster_than_cpu_at_scale(self):
        stats = TensorStats.from_dims((319_686, 28_153_045, 1_607_191, 731), 112_890_310)
        gpu = cstf(stats, rank=32, update="cuadmm", device="a100", max_iters=1)
        cpu = cstf(stats, rank=32, update="admm", device="cpu", mttkrp_format="csf", max_iters=1)
        assert gpu.per_iteration_seconds() < cpu.per_iteration_seconds()


class TestWarmStart:
    def test_warm_start_from_model(self, tensor):
        cold = cstf(tensor, rank=3, update="cuadmm", max_iters=10, seed=0)
        warm = cstf(tensor, rank=3, update="cuadmm", max_iters=3,
                    init_factors=cold.kruskal)
        assert warm.fits[0] >= cold.fits[-1] - 1e-6

    def test_warm_start_from_factor_list(self, tensor):
        import numpy as np

        rng = np.random.default_rng(0)
        init = [rng.random((d, 3)) for d in tensor.shape]
        res = cstf(tensor, rank=3, update="cuadmm", max_iters=2, init_factors=init)
        assert np.isfinite(res.fits).all()

    def test_shape_mismatch_rejected(self, tensor):
        import numpy as np

        bad = [np.ones((99, 3)) for _ in tensor.shape]
        with pytest.raises(ValueError, match="warm-start factor"):
            cstf(tensor, rank=3, init_factors=bad)

    def test_model_rank_mismatch_rejected(self, tensor):
        cold = cstf(tensor, rank=3, max_iters=2)
        with pytest.raises(ValueError, match="warm-start model"):
            cstf(tensor, rank=4, init_factors=cold.kruskal)

    def test_negative_init_clipped_for_nonneg_updates(self, tensor):
        import numpy as np

        init = [np.full((d, 3), -1.0) + np.eye(d, 3) * 3 for d in tensor.shape]
        res = cstf(tensor, rank=3, update="cuadmm", max_iters=2, init_factors=init)
        for f in res.kruskal.factors:
            assert (f >= 0).all()
