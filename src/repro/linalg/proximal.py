"""Proximity operators for constrained factorization.

The ADMM primal update (line 7 of Algorithm 2) is
``H = argmin_H r(H) + ρ/2 ||H - (H̃ᵀ - U)||²`` — i.e. the proximity operator
of the regularizer ``r`` evaluated at ``H̃ᵀ - U`` with step ``1/ρ``. The
choice of ``r`` is the framework's constraint plug-in point; every operator
here is element-wise separable (or row-separable for the simplex), which is
what lets cuADMM fuse it with the dual update.

Registered operators
--------------------
``nonneg``      projection onto the nonnegative orthant (the paper's focus)
``unconstrained`` identity (plain CP-ALS through the ADMM machinery)
``l1``          soft-thresholding (sparsity), weight ``alpha``
``ridge``       L2 shrinkage, weight ``alpha``
``nonneg_l1``   soft-threshold then clip at zero (sparse + nonnegative)
``box``         projection onto ``[lo, hi]``
``simplex``     row-wise projection onto the probability simplex
``smooth``      quadratic smoothness along the mode index (columns solve a
                tridiagonal system), weight ``alpha`` — the "smoothness"
                constraint Section 3.2 credits ADMM with supporting
``smooth_nonneg`` smoothness followed by clipping at zero
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.utils.validation import require

__all__ = ["ProximalOperator", "get_proximal", "PROXIMAL_REGISTRY", "project_simplex_rows"]


@dataclass(frozen=True)
class ProximalOperator:
    """A named proximity operator ``prox_{r/ρ}``.

    ``fn(x, rho)`` must return an array of the same shape; ``elementwise``
    marks operators that are separable per element, which cuADMM's fused
    kernels require (the simplex projection is row-separable instead and
    falls back to the unfused path in the cost model). ``inplace`` marks an
    ``fn`` that also takes ``out=`` (which may alias ``x``).
    """

    name: str
    fn: Callable[..., np.ndarray]
    elementwise: bool = True
    params: dict = field(default_factory=dict)
    inplace: bool = False

    def __call__(self, x: np.ndarray, rho: float, out=None) -> np.ndarray:
        """``prox(x)``, written into ``out`` when given."""
        require(rho > 0.0, f"rho must be positive, got {rho}")
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            return self.fn(x, float(rho))
        if self.inplace:
            return self.fn(x, float(rho), out=out)
        np.copyto(out, self.fn(x, float(rho)))
        return out


def _prox_nonneg(x, rho, out=None):
    return np.maximum(x, 0.0, out=out)


def _prox_identity(x, rho):
    return x.copy()


def _make_prox_l1(alpha: float):
    def fn(x, rho):
        thresh = alpha / rho
        return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)

    return fn


def _make_prox_ridge(alpha: float):
    def fn(x, rho):
        return x * (rho / (rho + alpha))

    return fn


def _make_prox_nonneg_l1(alpha: float):
    def fn(x, rho):
        return np.maximum(x - alpha / rho, 0.0)

    return fn


def _make_prox_box(lo: float, hi: float):
    require(lo <= hi, f"box bounds inverted: [{lo}, {hi}]")

    def fn(x, rho):
        return np.clip(x, lo, hi)

    return fn


def project_simplex_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Vectorized over rows (Duchi et al. 2008): sort descending, find the
    largest prefix whose shifted mean stays below the sorted values, shift
    and clip.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return project_simplex_rows(x[None, :])[0]
    n = x.shape[1]
    sorted_desc = -np.sort(-x, axis=1)
    cumsum = np.cumsum(sorted_desc, axis=1) - 1.0
    arange = np.arange(1, n + 1, dtype=np.float64)
    cond = sorted_desc - cumsum / arange > 0.0
    # rho_idx: last position where cond holds (guaranteed >= 1 position).
    rho_idx = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = cumsum[np.arange(x.shape[0]), rho_idx] / (rho_idx + 1.0)
    return np.maximum(x - theta[:, None], 0.0)


def _prox_simplex(x, rho):
    return project_simplex_rows(x)


def _make_prox_smooth(alpha: float, nonneg: bool = False):
    """Proximity of ``(alpha/2)·‖D h‖²`` column-wise (D = first differences).

    Solves ``(I + (alpha/rho) DᵀD) h = v`` per column — a symmetric
    tridiagonal system, solved for all columns at once with the banded
    solver. Encourages slowly-varying factor columns (temporal/spatial
    smoothness); optionally composed with the nonnegative projection
    (exact for this pair up to the standard proximal-composition
    approximation used in practice).
    """

    def fn(x, rho):
        import scipy.linalg

        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        if n == 1:
            out = x.copy()
        else:
            lam = alpha / rho
            # DᵀD is tridiagonal with diag (1, 2, ..., 2, 1) and off-diag -1.
            diag = 1.0 + lam * np.concatenate(([1.0], np.full(n - 2, 2.0), [1.0]))
            off = np.full(n - 1, -lam)
            ab = np.zeros((3, n))
            ab[0, 1:] = off
            ab[1] = diag
            ab[2, :-1] = off
            out = scipy.linalg.solve_banded((1, 1), ab, x)
        if nonneg:
            out = np.maximum(out, 0.0)
        return out

    return fn


PROXIMAL_REGISTRY: dict[str, Callable[..., ProximalOperator]] = {
    "nonneg": lambda: ProximalOperator("nonneg", _prox_nonneg, inplace=True),
    "unconstrained": lambda: ProximalOperator("unconstrained", _prox_identity),
    "l1": lambda alpha=0.1: ProximalOperator("l1", _make_prox_l1(alpha), params={"alpha": alpha}),
    "ridge": lambda alpha=0.1: ProximalOperator(
        "ridge", _make_prox_ridge(alpha), params={"alpha": alpha}
    ),
    "nonneg_l1": lambda alpha=0.1: ProximalOperator(
        "nonneg_l1", _make_prox_nonneg_l1(alpha), params={"alpha": alpha}
    ),
    "box": lambda lo=0.0, hi=1.0: ProximalOperator(
        "box", _make_prox_box(lo, hi), params={"lo": lo, "hi": hi}
    ),
    "simplex": lambda: ProximalOperator("simplex", _prox_simplex, elementwise=False),
    "smooth": lambda alpha=1.0: ProximalOperator(
        "smooth", _make_prox_smooth(alpha), elementwise=False, params={"alpha": alpha}
    ),
    "smooth_nonneg": lambda alpha=1.0: ProximalOperator(
        "smooth_nonneg",
        _make_prox_smooth(alpha, nonneg=True),
        elementwise=False,
        params={"alpha": alpha},
    ),
}


def get_proximal(constraint, **params) -> ProximalOperator:
    """Resolve a constraint name (or pass through an operator instance)."""
    if isinstance(constraint, ProximalOperator):
        return constraint
    if constraint not in PROXIMAL_REGISTRY:
        raise KeyError(
            f"unknown constraint {constraint!r}; available: {sorted(PROXIMAL_REGISTRY)}"
        )
    return PROXIMAL_REGISTRY[constraint](**params)
