"""Exhaustive symbolic/concrete cost-parity across every executor op.

The analytic (paper-scale) mode is only valid if replaying an op sequence
on shape-only arrays charges exactly what the concrete run charges. The
basic ops are covered in test_executor.py; this file covers the rest —
solves, fused kernels, prox variants — and cross-checks whole update
methods on every device.
"""

import numpy as np
import pytest

from repro.linalg.proximal import get_proximal
from repro.machine.executor import Executor
from repro.machine.symbolic import SymArray
from repro.updates.admm import AdmmUpdate, cuadmm
from repro.updates.als import AlsUpdate
from repro.updates.apg import ApgUpdate
from repro.updates.blocked_admm import BlockedAdmmUpdate
from repro.updates.hals import HalsUpdate
from repro.updates.mu import MuUpdate

ROWS, RANK = 64, 6


def _concrete_operands(seed=0):
    rng = np.random.default_rng(seed)
    h = rng.random((ROWS, RANK))
    s = rng.random((RANK, RANK))
    s = s @ s.T + RANK * np.eye(RANK)
    return h, s


def _sym_operands():
    return SymArray((ROWS, RANK)), SymArray((RANK, RANK))


OPS = {
    "gemv": lambda ex, h, s: ex.gemv(h, s[:, 0] if isinstance(s, np.ndarray) else SymArray((RANK,))),
    "trsm": lambda ex, h, s: ex.trsm(
        np.linalg.cholesky(s) if isinstance(s, np.ndarray) else s, h.T
    ),
    "cholesky": lambda ex, h, s: ex.cholesky(s),
    "spd_inverse": lambda ex, h, s: ex.spd_inverse(
        np.linalg.cholesky(s) if isinstance(s, np.ndarray) else s
    ),
    "cholesky_solve": lambda ex, h, s: ex.cholesky_solve(
        np.linalg.cholesky(s) if isinstance(s, np.ndarray) else s, h.T
    ),
    "prox_nonneg": lambda ex, h, s: ex.prox(get_proximal("nonneg"), h, 1.0),
    "prox_l1": lambda ex, h, s: ex.prox(get_proximal("l1"), h, 2.0),
    "elementwise_div": lambda ex, h, s: ex.elementwise_div(h, h, eps=1e-12),
    "scale": lambda ex, h, s: ex.scale(2.0, h),
    "clip_min": lambda ex, h, s: ex.clip_min(h),
    "col_scale": lambda ex, h, s: ex.col_scale(
        h, np.ones(RANK) if isinstance(h, np.ndarray) else SymArray((RANK,))
    ),
    "fused_prox": lambda ex, h, s: ex.fused_prox_primal(get_proximal("nonneg"), h, h, 1.0),
    "fused_dual": lambda ex, h, s: ex.fused_dual_update(h, h, h, h),
    "fused_sweep_gemm": lambda ex, h, s: ex.fused_admm_sweep(
        get_proximal("nonneg"), h, h, h, 1.0, s, s
    ),
    "fused_sweep_trsm": lambda ex, h, s: ex.fused_admm_sweep(
        get_proximal("l1"), h, h, h, 2.0,
        np.linalg.cholesky(s) if isinstance(s, np.ndarray) else s,
    ),
    "norm_sq": lambda ex, h, s: ex.norm_sq(h),
}


class TestOpParity:
    @pytest.mark.parametrize("name", sorted(OPS))
    @pytest.mark.parametrize("device", ["a100", "h100", "cpu"])
    def test_symbolic_equals_concrete_cost(self, name, device):
        op = OPS[name]
        ex_c = Executor(device)
        h, s = _concrete_operands()
        op(ex_c, h, s)
        ex_s = Executor(device)
        hs, ss = _sym_operands()
        op(ex_s, hs, ss)
        assert ex_s.timeline.total_seconds() == pytest.approx(
            ex_c.timeline.total_seconds(), rel=1e-12
        ), name
        assert ex_s.timeline.launch_count == ex_c.timeline.launch_count, name


UPDATES = {
    "admm": lambda: AdmmUpdate(inner_iters=3),
    "admm_of": lambda: AdmmUpdate(inner_iters=3, fuse_ops=True),
    "admm_pi": lambda: AdmmUpdate(inner_iters=3, preinvert=True),
    "cuadmm": lambda: cuadmm(inner_iters=3),
    "blocked_admm": lambda: BlockedAdmmUpdate(inner_iters=3),
    "hals": lambda: HalsUpdate(sweeps=2),
    "mu": lambda: MuUpdate(iters=2),
    "als": AlsUpdate,
    "apg": lambda: ApgUpdate(inner_iters=3),
}


class TestUpdateParity:
    @pytest.mark.parametrize("name", sorted(UPDATES))
    @pytest.mark.parametrize("device", ["h100", "cpu"])
    def test_whole_update_cost_parity(self, name, device):
        update = UPDATES[name]()
        h, s = _concrete_operands(seed=1)
        m = np.abs(_concrete_operands(seed=2)[0])

        ex_c = Executor(device)
        state = update.init_state((ROWS,), RANK)
        update.update(ex_c, 0, m, s, np.abs(h), state)

        ex_s = Executor(device)
        update.update(ex_s, 0, SymArray((ROWS, RANK)), SymArray((RANK, RANK)),
                      SymArray((ROWS, RANK)), {})
        assert ex_s.timeline.total_seconds() == pytest.approx(
            ex_c.timeline.total_seconds(), rel=1e-12
        ), (name, device)
