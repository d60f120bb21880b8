"""Correctness checks on one factorization's outputs.

Every check returns ``None`` when it passes and a one-line reason when it
fails; any failure counts the factorization as failed.
"""

from __future__ import annotations

import os

import numpy as np

FIT_ATOL = 1e-9
"""Allowed |result.fit - recomputed fit|: both sum the same O(nnz) terms in
different orders, so they agree to far better than this."""

MTTKRP_RTOL = 1e-10
"""Allowed max |library - reference| over max |reference| for the one-mode
MTTKRP check (float64 sums in a different order)."""

CHECK_MODE = 0
"""MTTKRP check mode. Mode 0's Khatri-Rao product skips factor 0, so the
check is non-trivial even when factor 0 itself is all zero."""


def factors_ok(factors, weights):
    for n, f in enumerate([*factors, weights]):
        what = "weights" if n == len(factors) else f"factor {n}"
        if not np.all(np.isfinite(f)):
            return f"{what} has non-finite entries"
        if np.any(f < 0):
            return f"{what} has negative entries"
    return None


def reference_fit(indices, values, factors, weights) -> float:
    """``1 - ||X - M|| / ||X||`` computed independently of the library."""
    x_norm_sq = float(values @ values)
    rows = np.broadcast_to(weights, (values.size, weights.size)).copy()
    for n, f in enumerate(factors):
        rows *= f[indices[:, n]]
    inner = float(values @ rows.sum(axis=1))
    gram = np.ones((weights.size, weights.size))
    for f in factors:
        gram *= f.T @ f
    model_sq = float(weights @ gram @ weights)
    resid = max(x_norm_sq - 2.0 * inner + model_sq, 0.0)
    return 1.0 - np.sqrt(resid) / np.sqrt(x_norm_sq)


def fit_ok(reported, indices, values, factors, weights):
    ref = reference_fit(indices, values, factors, weights)
    if reported is None or not abs(reported - ref) <= FIT_ATOL:
        return f"result.fit {reported!r} != recomputed {ref!r} (atol {FIT_ATOL})"
    return None


def reference_mttkrp(indices, values, factors, mode: int) -> np.ndarray:
    rank = factors[0].shape[1]
    rows = np.broadcast_to(values[:, None], (values.size, rank)).copy()
    for n, f in enumerate(factors):
        if n != mode:
            rows *= f[indices[:, n]]
    out = np.zeros((factors[mode].shape[0], rank))
    np.add.at(out, indices[:, mode], rows)
    return out


def library_mttkrp(tensor, factors, mode: int, fmt: str, engine):
    """MTTKRP through the library path the factorization used: the
    resolved ``CstfConfig.mttkrp_format`` and ``CstfConfig.engine``."""
    if engine is not None:
        from repro.engine.driver import engine_mttkrp

        return engine_mttkrp(tensor, factors, mode, fmt, engine)
    from repro.kernels import mttkrp
    from repro.tensor.alto import AltoTensor
    from repro.tensor.blco import BlcoTensor
    from repro.tensor.csf import CsfTensor

    if fmt == "blco":
        data = BlcoTensor.from_coo(tensor)
    elif fmt == "alto":
        data = AltoTensor.from_coo(tensor)
    elif fmt == "csf":
        data = CsfTensor.from_coo(tensor, root_mode=mode)
    else:
        data = tensor
    return mttkrp(data, factors, mode)


def mttkrp_ok(tensor, factors, fmt, engine):
    got = library_mttkrp(tensor, factors, CHECK_MODE, fmt, engine)
    ref = reference_mttkrp(tensor.indices, tensor.values, factors, CHECK_MODE)
    scale = float(np.abs(ref).max()) or 1.0
    err = float(np.abs(got - ref).max()) / scale
    if not err <= MTTKRP_RTOL:
        return f"mode-{CHECK_MODE} MTTKRP differs from the reference by {err:.3g} (rtol {MTTKRP_RTOL})"
    return None


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def teardown_ok(shm_before: set, worker_pids):
    """After ``shutdown_backends()``: no new /dev/shm segments and no
    worker process left."""
    import multiprocessing

    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        return f"leftover /dev/shm segments: {leaked}"
    alive = [p.pid for p in multiprocessing.active_children()]
    alive += [pid for pid in worker_pids if os.path.exists(f"/proc/{pid}")]
    if alive:
        return f"worker processes still running: {sorted(set(alive))}"
    return None
