"""The fused ADMM loop on reused buffers: bitwise equal to the allocating
fused iteration (recovery paths included) and allocation-free after the
first inner iteration."""

import tracemalloc

import numpy as np
import pytest

from repro.core.cstf import cstf
from repro.machine.executor import Executor
from repro.resilience import FaultInjector, FaultSpec, ResilienceContext, ResiliencePolicy
from repro.resilience.policy import STATE_KEY
from repro.tensor.synthetic import planted_nonneg_cp
from repro.updates.admm import AdmmUpdate, cuadmm

ROWS, RANK = 400, 8


class _AllocatingFused(AdmmUpdate):
    """The fused inner iteration as plain allocating NumPy expressions: a
    fresh array for every intermediate, no workspace, no row tiles, and the
    divergence magnitude taken from the whole arrays."""

    def _workspace(self, shape):
        return None

    def _iter_fused(self, ex, m_mat, h, u, rho, l_factor, g_inv, ws=None):
        assert ws is None
        h_aux = m_mat + rho * (h + u)
        h_bar = ex._apply_inverse(h_aux, l_factor, g_inv)
        h_new = self.prox(h_bar - u, rho)
        dh = h_new - h_bar
        u_new = u + dh
        d_prev = h_new - h
        r_primal = float(np.vdot(dh, dh).real) / max(float(np.vdot(h_new, h_new).real), 1e-30)
        r_dual = float(np.vdot(d_prev, d_prev).real) / max(float(np.vdot(u_new, u_new).real), 1e-30)
        return h_new, u_new, r_primal, r_dual, None


class _FaultySolve(Executor):
    """Poisons the result of the listed apply-inverse calls (1-based) with
    NaN. The factor here is a single sweep tile, so each poisoned call is
    one diverged inner iteration on both sides."""

    def __init__(self, poison_calls):
        super().__init__("a100")
        self.poison = set(poison_calls)
        self.calls = 0

    def _apply_inverse(self, h_aux, l_factor, g_inv, out=None):
        res = super()._apply_inverse(h_aux, l_factor, g_inv, out=out)
        self.calls += 1
        if self.calls in self.poison:
            res[0, 0] = np.nan
        return res


def _problem(seed=0):
    rng = np.random.default_rng(seed)
    basis = rng.random((3 * RANK, RANK))
    return rng.random((ROWS, RANK)), basis.T @ basis, rng.random((ROWS, RANK))


def _run(update, ex, m, s, h0, policy=None, mode=0):
    state = update.init_state((ROWS, ROWS), RANK)
    ctx = None
    if policy is not None:
        ctx = ResilienceContext(policy)
        state[STATE_KEY] = ctx
    state["dual"][mode] = np.random.default_rng(9).random((ROWS, RANK)) * 0.1
    out = update.update(ex, mode, m, s, h0, state)
    kinds = [e.kind for e in ctx.events] if ctx is not None else []
    return out, state["dual"][mode], kinds


FLAGS = [dict(fuse_ops=True, preinvert=True), dict(fuse_ops=True)]


class TestBitwiseAgainstAllocatingPath:
    @pytest.mark.parametrize("flags", FLAGS, ids=["cuadmm", "admm_of"])
    def test_clean_update(self, flags):
        m, s, h0 = _problem()
        got = _run(AdmmUpdate(**flags), Executor("a100"), m, s, h0)
        ref = _run(_AllocatingFused(**flags), Executor("a100"), m, s, h0)
        for a, b in zip(got[:2], ref[:2]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("poison,expected", [
        ({3}, {"admm_divergence", "admm_rho_rescale"}),
        ({3, 4, 5}, {"admm_divergence", "admm_rho_rescale", "admm_restart"}),
    ], ids=["rho-rescale-rollback", "fresh-restart"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_recovery_paths(self, poison, expected):
        m, s, h0 = _problem(seed=1)
        policy = ResiliencePolicy(max_admm_failures=2)
        got = _run(cuadmm(), _FaultySolve(poison), m, s, h0, policy)
        ref = _run(_AllocatingFused(fuse_ops=True, preinvert=True),
                   _FaultySolve(poison), m, s, h0, policy)
        assert set(got[2]) == expected
        assert got[2] == ref[2]
        assert np.isfinite(got[0]).all()
        for a, b in zip(got[:2], ref[:2]):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_rhs_escalation(self):
        """The existing full-escalation case: rollbacks, restart, give-up."""
        m, s, h0 = _problem(seed=2)
        m[0, 0] = np.nan
        policy = ResiliencePolicy(max_admm_failures=2)
        got = _run(cuadmm(), Executor("a100"), m, s, h0, policy)
        ref = _run(_AllocatingFused(fuse_ops=True, preinvert=True),
                   Executor("a100"), m, s, h0, policy)
        assert "admm_giveup" in got[2] and got[2] == ref[2]
        for a, b in zip(got[:2], ref[:2]):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("phase", ["MTTKRP", "UPDATE"])
    def test_fault_injected_factorization(self, phase):
        tensor = planted_nonneg_cp((30, 24, 18), rank=3, nnz=900, seed=6)[0]
        runs = []
        for update in (cuadmm(), _AllocatingFused(fuse_ops=True, preinvert=True)):
            inj = FaultInjector(FaultSpec(phase, kind="nan", probability=0.4), seed=5)
            runs.append(cstf(tensor, rank=3, max_iters=4, seed=1, update=update,
                             fault_injector=inj))
        assert runs[0].recoveries > 0
        assert [e.kind for e in runs[0].events] == [e.kind for e in runs[1].events]
        for a, b in zip(runs[0].kruskal.factors, runs[1].kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(runs[0].kruskal.weights, runs[1].kruskal.weights)

    def test_caller_arrays_are_never_written(self):
        m, s, h0 = _problem()
        h_in, m_in = h0.copy(), m.copy()
        upd = cuadmm()
        state = upd.init_state((ROWS, ROWS), RANK)
        u0 = state["dual"][0]
        u0 += 0.5
        u_in = u0.copy()
        upd.update(Executor("a100"), 0, m, s, h0, state)
        assert np.array_equal(h0, h_in) and np.array_equal(m, m_in)
        assert np.array_equal(u0, u_in)

    def test_results_survive_later_updates(self):
        """Two modes of one shape share the scratch buffers, never the
        returned factor or dual."""
        m, s, h0 = _problem()
        upd = cuadmm()
        state = upd.init_state((ROWS, ROWS), RANK)
        h_first = upd.update(Executor("a100"), 0, m, s, h0, state)
        kept = (h_first.copy(), state["dual"][0].copy())
        upd.update(Executor("a100"), 1, m * 2.0, s, h0, state)
        assert np.array_equal(h_first, kept[0])
        assert np.array_equal(state["dual"][0], kept[1])


class _AllocationProbe(Executor):
    """Records the peak traced allocation of each inner iteration (the
    iteration ends with its host read-back record)."""

    def __init__(self):
        super().__init__("a100")
        self.peaks = []
        self._base = 0

    def start(self):
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]

    def record(self, name, **kw):
        if name == "host_readback_sync":
            self.peaks.append(tracemalloc.get_traced_memory()[1] - self._base)
            self.start()
        return super().record(name, **kw)


@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
def test_inner_iterations_after_the_first_allocate_no_factor_sized_array(resilient):
    m, s, h0 = _problem()
    upd = cuadmm(inner_iters=10)
    state = upd.init_state((ROWS, ROWS), RANK)
    if resilient:
        state[STATE_KEY] = ResilienceContext(ResiliencePolicy())
    ex = _AllocationProbe()
    tracemalloc.start()
    try:
        ex.start()
        upd.update(ex, 0, m, s, h0, state)
    finally:
        tracemalloc.stop()
    factor_bytes = ROWS * RANK * 8
    assert len(ex.peaks) == 10
    assert ex.peaks[0] >= factor_bytes  # the workspace itself
    assert max(ex.peaks[1:]) < factor_bytes


# --------------------------------------------------------------------- #
# Factors spanning several sweep tiles
# --------------------------------------------------------------------- #
TILED_ROWS = 10 * 2048 + 7  # ten full sweep tiles at RANK=8 and a partial one


def _tiled_problem(seed=0):
    rng = np.random.default_rng(seed)
    basis = rng.random((3 * RANK, RANK))
    return (rng.random((TILED_ROWS, RANK)), basis.T @ basis,
            rng.random((TILED_ROWS, RANK)))


def _run_tiled(update, m, s, h0, policy):
    state = update.init_state((TILED_ROWS,), RANK)
    ctx = ResilienceContext(policy)
    state[STATE_KEY] = ctx
    state["dual"][0] = np.random.default_rng(9).random((TILED_ROWS, RANK)) * 0.1
    out = update.update(Executor("a100"), 0, m, s, h0, state)
    return out, state["dual"][0], [e.kind for e in ctx.events]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("flags", FLAGS, ids=["cuadmm", "admm_of"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("row", [3, 2048 + 100, TILED_ROWS - 1], ids=["first", "middle", "last"])
def test_one_bad_tile_recovers_like_the_whole_array_loop(flags, bad, row):
    m, s, h0 = _tiled_problem(seed=3)
    m[row, 1] = bad
    policy = ResiliencePolicy(max_admm_failures=2)
    got = _run_tiled(AdmmUpdate(**flags), m, s, h0, policy)
    ref = _run_tiled(_AllocatingFused(**flags), m, s, h0, policy)
    assert "admm_divergence" in got[2] and got[2] == ref[2]
    for a, b in zip(got[:2], ref[:2]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("flags", FLAGS, ids=["cuadmm", "admm_of"])
def test_magnitude_divergence_matches_the_whole_array_loop(flags):
    """Finite iterates past a (tight) divergence threshold: the decision
    rests on the sweep's per-tile extremes alone."""
    m, s, h0 = _tiled_problem(seed=4)
    m[2048 + 5, 0] = 50.0
    policy = ResiliencePolicy(max_admm_failures=2, divergence_threshold=0.05)
    got = _run_tiled(AdmmUpdate(**flags), m, s, h0, policy)
    ref = _run_tiled(_AllocatingFused(**flags), m, s, h0, policy)
    assert "admm_divergence" in got[2] and got[2] == ref[2]
    for a, b in zip(got[:2], ref[:2]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("flags", FLAGS, ids=["cuadmm", "admm_of"])
def test_tiled_update_scratch_is_tile_sized_and_iterations_allocate_no_factor(flags):
    m, s, h0 = _tiled_problem()
    upd = AdmmUpdate(inner_iters=10, **flags)
    state = upd.init_state((TILED_ROWS,), RANK)
    state[STATE_KEY] = ResilienceContext(ResiliencePolicy())
    ex = _AllocationProbe()
    tracemalloc.start()
    try:
        ex.start()
        upd.update(ex, 0, m, s, h0, state)
    finally:
        tracemalloc.stop()
    factor_bytes = TILED_ROWS * RANK * 8
    tile_elems = 2048 * RANK
    assert [buf.size for buf in upd._scratch] == [tile_elems, tile_elems]
    assert len(ex.peaks) == 10
    # The first iteration holds the workspace: two ping-pong pairs of I×R
    # iterates and two tile-sized scratch buffers, nothing more I×R-sized.
    assert 4 * factor_bytes <= ex.peaks[0] < 5 * factor_bytes
    assert max(ex.peaks[1:]) < factor_bytes
