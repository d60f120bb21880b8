"""The driver's fit from the last MTTKRP: its tolerance contract against
:meth:`KruskalTensor.fit`, and the cases that keep the direct evaluation."""

from importlib import import_module

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import _charge_fit, cstf
from repro.core.kruskal import KruskalTensor
from repro.core.trace import PHASE_FIT, PHASES
from repro.machine.executor import Executor
from repro.resilience import FaultInjector, FaultSpec
from repro.tensor.synthetic import planted_nonneg_cp, planted_sparse_cp

# import_module, not ``import repro.core.cstf``: the package re-exports the
# function under the module's name.
cstf_mod = import_module("repro.core.cstf")

FIT_ATOL = 1e-9
"""Contract: the reported fit equals ``KruskalTensor.fit`` of the returned
model within this absolute tolerance (docs/PERFORMANCE.md)."""

UPDATES = ("cuadmm", "admm", "hals", "mu")
NORMALIZE = ("max", "2")
FORMATS = ("coo", "alto", "blco", "csf")


@pytest.fixture(scope="module")
def noisy():
    """A planted model with noise: the fit stays well below 1, so the
    identity is what the driver reports."""
    t, _ = planted_nonneg_cp((26, 21, 17), rank=3, nnz=1500, noise=0.2, seed=4)
    return t


@pytest.fixture(scope="module")
def exact():
    """An exactly low-rank tensor: the fit reaches 1 to rounding."""
    t, _ = planted_sparse_cp((14, 12, 10), rank=2, factor_sparsity=0.4, seed=3)
    return t


@pytest.fixture
def direct_calls(monkeypatch):
    """Counts calls of the direct fit evaluation."""
    calls = []
    real = KruskalTensor.fit

    def counting(self, tensor):
        calls.append(1)
        return real(self, tensor)

    monkeypatch.setattr(KruskalTensor, "fit", counting)
    return calls


def _direct(result, tensor):
    # The model the driver returns is the one its last fit evaluated.
    return KruskalTensor.fit(result.kruskal, tensor)


class TestToleranceContract:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("normalize", NORMALIZE)
    @pytest.mark.parametrize("update", UPDATES)
    def test_identity_matches_direct_fit(self, noisy, update, normalize, fmt):
        res = cstf(noisy, rank=3, max_iters=3, update=update,
                   normalize=normalize, mttkrp_format=fmt, seed=1)
        assert 0.0 < res.fits[-1] < 0.99
        assert res.fits[-1] == pytest.approx(_direct(res, noisy), abs=FIT_ATOL)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("update", UPDATES)
    def test_near_exact_models_match_direct_fit(self, exact, update, fmt):
        res = cstf(exact, rank=2, max_iters=30, update=update,
                   mttkrp_format=fmt, seed=1)
        assert res.fits[-1] == pytest.approx(_direct(res, exact), abs=FIT_ATOL)

    def test_identity_skips_the_direct_evaluation(self, noisy, direct_calls):
        cstf(noisy, rank=3, max_iters=4, seed=1)
        assert direct_calls == []

    def test_near_exact_model_falls_back_to_direct(self, exact, direct_calls):
        res = cstf(exact, rank=2, max_iters=30, seed=1)
        assert res.fits[-1] > 1.0 - cstf_mod._EXACT_FIT_MARGIN
        assert direct_calls  # the late, near-exact iterations

    def test_fit_trace_matches_engine_off(self, noisy):
        on = cstf(noisy, rank=3, max_iters=4, seed=2)
        off = cstf(noisy, rank=3, max_iters=4, seed=2, engine="off")
        assert on.fits == off.fits


class TestDirectFitKept:
    def test_tensor_based_update(self, direct_calls):
        counts = planted_nonneg_cp((12, 10, 8), rank=2, nnz=300, seed=5)[0]
        counts = type(counts)(counts.indices, np.round(counts.values) + 1.0,
                              counts.shape)
        res = cstf(counts, rank=2, max_iters=3, update="mu_kl", seed=0)
        assert len(direct_calls) == 3
        assert res.fits[-1] == _direct(res, counts)

    def test_fault_injected_iterations(self, noisy, direct_calls):
        inj = FaultInjector(FaultSpec("MTTKRP", kind="perturb", probability=1.0),
                            seed=3)
        res = cstf(noisy, rank=3, max_iters=3, seed=1, fault_injector=inj)
        assert inj.injected >= 3
        assert len(direct_calls) == 3
        assert res.fits[-1] == _direct(res, noisy)

    def test_injector_that_never_fires_keeps_the_identity(self, noisy, direct_calls):
        inj = FaultInjector(FaultSpec("UPDATE", probability=0.0), seed=0)
        faulty = cstf(noisy, rank=3, max_iters=3, seed=1, fault_injector=inj)
        clean = cstf(noisy, rank=3, max_iters=3, seed=1)
        assert direct_calls == []
        assert faulty.fits == clean.fits

    def test_sentinel_repaired_mttkrp(self, noisy, direct_calls, monkeypatch):
        real = cstf_mod._ConcreteMttkrp.compute
        last = noisy.ndim - 1

        def poisoned(self, ex, factors, mode, rank):
            out = real(self, ex, factors, mode, rank)
            if mode == last:
                out = out.copy()
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(cstf_mod._ConcreteMttkrp, "compute", poisoned)
        res = cstf(noisy, rank=3, max_iters=2, seed=1, engine="off")
        assert len(direct_calls) == 2
        assert {e.kind for e in res.events} == {"sentinel_repair"}
        assert res.fits[-1] == _direct(res, noisy)

    def test_resumed_run_continues_the_same_fit_trace(self, noisy, tmp_path):
        straight = cstf(noisy, rank=3, max_iters=6, seed=3)
        path = tmp_path / "half.npz"
        cstf(noisy, rank=3, max_iters=3, seed=3, checkpoint_every=3,
             checkpoint_path=path)
        resumed = cstf(noisy, rank=3, max_iters=6, seed=3, resume_from=path)
        assert resumed.fits == straight.fits
        assert resumed.fits[-1] == pytest.approx(_direct(resumed, noisy),
                                                 abs=FIT_ATOL)


class TestSimulatedCostUnchanged:
    def test_fit_phase_charges_the_direct_evaluation(self, noisy):
        iters, rank = 3, 3
        res = cstf(noisy, rank=rank, max_iters=iters, seed=1)
        ref = Executor("a100")
        with ref.phase(PHASE_FIT):
            for _ in range(iters):
                _charge_fit(ref, noisy, rank)
        assert res.timeline.seconds(PHASE_FIT) == ref.timeline.seconds(PHASE_FIT)

    def test_sim_iter_s_independent_of_fit_path(self, noisy, monkeypatch):
        identity = cstf(noisy, CstfConfig(rank=3, max_iters=3, seed=1))
        monkeypatch.setattr(cstf_mod, "_EXACT_FIT_MARGIN", 2.0)  # always direct
        direct = cstf(noisy, CstfConfig(rank=3, max_iters=3, seed=1))
        assert identity.per_iteration_seconds() == direct.per_iteration_seconds()
        for phase in PHASES:
            assert identity.timeline.seconds(phase) == direct.timeline.seconds(phase)
        assert identity.fits == pytest.approx(direct.fits, abs=FIT_ATOL)
