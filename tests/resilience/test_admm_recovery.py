"""ADMM divergence recovery: rollback, ρ-rescale, restart, give-up."""

import numpy as np
import pytest

from repro.machine.executor import Executor
from repro.resilience import ResilienceContext, ResiliencePolicy
from repro.resilience.policy import STATE_KEY
from repro.updates.admm import AdmmUpdate, cuadmm
from repro.updates.blocked_admm import BlockedAdmmUpdate


def _problem(rows=12, rank=3, seed=0):
    """A healthy (M, S, H) triple for a nonnegative update."""
    rng = np.random.default_rng(seed)
    h_true = rng.random((rows, rank))
    s = h_true.T @ h_true + rank * np.eye(rank)
    m = rng.random((rows, rank))
    h0 = rng.random((rows, rank))
    return m, s, h0


def _state_with_ctx(update, rows, rank, policy=None):
    state = update.init_state((rows, rank), rank)
    ctx = ResilienceContext(policy or ResiliencePolicy())
    state[STATE_KEY] = ctx
    return state, ctx


class TestCleanPathUnchanged:
    @pytest.mark.parametrize("factory", [AdmmUpdate, cuadmm, BlockedAdmmUpdate])
    def test_context_does_not_change_healthy_numerics(self, factory):
        """With no faults, resilient and fail-fast updates are bit-identical."""
        m, s, h0 = _problem()
        upd_a, upd_b = factory(), factory()
        state_plain = upd_a.init_state((12, 3), 3)
        out_plain = upd_a.update(Executor("a100"), 0, m, s, h0.copy(), state_plain)
        state_ctx, ctx = _state_with_ctx(upd_b, 12, 3)
        out_ctx = upd_b.update(Executor("a100"), 0, m, s, h0.copy(), state_ctx)
        assert np.array_equal(out_plain, out_ctx)
        assert len(ctx.events) == 0


class TestDivergenceRecovery:
    def test_nan_rhs_triggers_full_escalation_and_stays_finite(self):
        """A NaN M makes every iterate non-finite: the update must roll back,
        rescale ρ, restart fresh, finally give up — and still return the
        last finite iterate instead of garbage."""
        m, s, h0 = _problem()
        m = m.copy()
        m[0, 0] = np.nan
        update = AdmmUpdate()
        policy = ResiliencePolicy(max_admm_failures=2)
        state, ctx = _state_with_ctx(update, 12, 3, policy)
        out = update.update(Executor("a100"), 0, m, s, h0.copy(), state)
        assert np.isfinite(out).all()
        assert np.isfinite(state["dual"][0]).all()
        kinds = ctx.events.counts()
        assert kinds["admm_divergence"] == 4  # 2 rollbacks + restart + give-up
        assert kinds["admm_rho_rescale"] == 2
        assert kinds["admm_restart"] == 1
        assert kinds["admm_giveup"] == 1

    def test_without_context_nan_fails_fast(self):
        """Historical fail-fast behavior: no context, no recovery — SciPy's
        finiteness check inside the triangular solve raises."""
        m, s, h0 = _problem()
        m = m.copy()
        m[0, 0] = np.nan
        update = AdmmUpdate()
        state = update.init_state((12, 3), 3)
        with pytest.raises(ValueError):
            update.update(Executor("a100"), 0, m, s, h0, state)

    def test_indefinite_gram_recovers_via_guarded_factorization(self):
        m, s, h0 = _problem()
        s_bad = s - (np.linalg.eigvalsh(s)[0] + 10 * np.trace(s)) * np.eye(3)
        update = AdmmUpdate()
        state, ctx = _state_with_ctx(update, 12, 3)
        out = update.update(Executor("a100"), 0, m, s_bad, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("cholesky_jitter")) >= 1
        assert len(ctx.events.of_kind("cholesky_recovered")) >= 1

    def test_nonfinite_gram_sanitized(self):
        m, s, h0 = _problem()
        s_bad = s.copy()
        s_bad[0, 1] = np.inf
        update = AdmmUpdate()
        state, ctx = _state_with_ctx(update, 12, 3)
        out = update.update(Executor("a100"), 0, m, s_bad, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("nonfinite_input")) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN math pre-detection
    @pytest.mark.parametrize("flags", [{}, {"fuse_ops": True}, {"preinvert": True},
                                       {"fuse_ops": True, "preinvert": True}])
    def test_recovery_works_in_every_kernel_configuration(self, flags):
        """OF/PI change the kernel schedule, never the recovery semantics."""
        m, s, h0 = _problem(seed=3)
        m = m.copy()
        m[2, 1] = np.inf
        update = AdmmUpdate(**flags)
        state, ctx = _state_with_ctx(update, 12, 3)
        out = update.update(Executor("a100"), 0, m, s, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("admm_giveup")) == 1


class TestBlockedAdmm:
    def test_blocked_update_shares_recovery_and_charges_refactorizations(self):
        m, s, h0 = _problem(rows=32)
        m = m.copy()
        m[0, 0] = np.nan
        update = BlockedAdmmUpdate(block_rows=8)
        state, ctx = _state_with_ctx(update, 32, 3, ResiliencePolicy(max_admm_failures=1))
        ex = Executor("cpu", keep_records=True)
        out = update.update(ex, 0, m, s, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("admm_giveup")) == 1
        # One nominal DPOTRF plus one per recovery re-factorization.
        recoveries = len(ctx.events.of_kind("admm_rho_rescale")) + len(
            ctx.events.of_kind("admm_restart")
        ) + len(ctx.events.of_kind("cholesky_jitter"))
        assert recoveries >= 1
        potrfs = [r for r in ex.timeline.records if r.name == "dpotrf"]
        assert len(potrfs) == 1 + recoveries


class TestDivergenceGuard:
    @pytest.mark.parametrize("h_fill,diverged", [
        (np.nan, True),
        (-1.0, False),
        (-1e9, True),
    ], ids=["nan", "all-negative-sane", "all-negative-blown-up"])
    def test_magnitude_bound_from_max_and_min(self, h_fill, diverged):
        """The bound is max |x| taken as max(max x, -min x): an all-negative
        iterate is judged by its most negative entry, a NaN diverges."""
        ctx = ResilienceContext(ResiliencePolicy())
        ref_scale = 2.0
        h = np.full((5, 3), h_fill)
        h[1, 1] = -0.5
        u = -np.random.default_rng(0).random((5, 3))
        got = AdmmUpdate._diverged(h, u, 0.1, 0.1, ctx, ref_scale)
        assert got is diverged
        if np.isfinite(h).all():
            # Same value as the |x| copies the bound used to allocate.
            bound = ctx.policy.divergence_threshold * ref_scale
            assert got == (max(np.abs(h).max(), np.abs(u).max()) > bound)
