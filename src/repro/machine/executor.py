"""The typed-kernel executor: compute in NumPy, account in simulated time.

Every operation an update method performs on the "device" goes through one
of these ops. Each op

1. computes the real result with NumPy (skipped when any operand is a
   :class:`~repro.machine.symbolic.SymArray` — the analytic, paper-scale
   mode), and
2. emits one :class:`~repro.machine.counters.KernelRecord`, converted to
   simulated seconds by the roofline model and accumulated on the
   :class:`~repro.machine.counters.Timeline`.

Op granularity mirrors the cuBLAS/cuSOLVER calls the paper's baseline uses
(DGEAM, DGEMM, DSYRK, DPOTRF, DTRSM, reductions) plus the three custom fused
kernels of cuADMM (Section 4.3.1): ``fused_auxiliary``,
``fused_prox_primal``, and ``fused_dual_update``. The fused ADMM loop runs
all three, with the apply-inverse in between, as one row-tiled sweep
(:meth:`Executor.fused_admm_sweep`) that charges the same kernels.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from repro.linalg.proximal import ProximalOperator
from repro.machine.costmodel import kernel_seconds
from repro.machine.counters import WORD_BYTES, KernelRecord, Timeline
from repro.machine.spec import DeviceSpec, get_device
from repro.machine.symbolic import SymArray, is_symbolic

__all__ = ["Executor", "SWEEP_TILE_ELEMS", "sweep_tile_rows"]

#: Elements per row tile of :meth:`Executor.fused_admm_sweep`: 512 rows at
#: R=32, 128 KiB per operand, so the seven I×R operands a tile touches
#: (M, H, U, H̃, H̄, new H, new U) stay inside a 2 MiB L2 while the tile is
#: worked on. Measured in docs/PERFORMANCE.md "Row-tiled ADMM sweep".
SWEEP_TILE_ELEMS = 16_384

#: Per-element (flops, reads, writes) of the three cuADMM fused kernels.
_FUSED_WORDS = {
    "fused_auxiliary": (3, 3, 1),
    "fused_prox_primal": (3, 2, 2),
    "fused_dual_update": (10, 5, 2),
}


def _shape(x) -> tuple[int, ...]:
    return tuple(x.shape)


def _size(x) -> int:
    return math.prod(_shape(x))


def sweep_tile_rows(op: ProximalOperator, rows: int, rank: int) -> int:
    """Rows per tile of the fused ADMM sweep over a ``rows``×``rank`` factor.

    Only elementwise proximity operators are split; the others (simplex,
    smoothness) run as one tile covering every row.
    """
    if not op.elementwise:
        return rows
    return min(rows, max(2, SWEEP_TILE_ELEMS // max(rank, 1)))


def _row_tiles(rows: int, tile_rows: int):
    """``(start, stop)`` row ranges of the sweep, at most *tile_rows* each.

    A tile is a lone row only when the factor is: BLAS computes a one-row
    product with its vector kernels (GEMV/TRSV), which round differently
    from the GEMM/TRSM of a whole-array call, so a lone trailing row is
    folded into a two-row last tile instead.
    """
    start = 0
    while start < rows:
        stop = min(start + tile_rows, rows)
        if rows - stop == 1 and stop - start > 1:
            stop -= 1
        yield start, stop
        start = stop


def _peak(a: float, b: float) -> float:
    """``max(a, b)`` that keeps a NaN from either side (Python's ``max``
    drops or keeps a NaN depending on argument order)."""
    return a if a != a or a >= b else b


def _solve_triangular(l_factor, b, lower: bool = True, transpose: bool = False):
    """``op(L) X = B`` for triangular ``L``; ``op`` transposes when asked."""
    mat = np.asarray(l_factor, dtype=np.float64)
    return scipy.linalg.solve_triangular(
        mat.T if transpose else mat, np.asarray(b, dtype=np.float64),
        lower=lower != transpose,
    )


# The bodies of the cuADMM fused kernels, on whole arrays or one row tile.
# Each writes into ``out`` when given (``_dual_update`` puts ΔH and then
# H - H_prev into ``scratch``, which may alias ``h_aux``); the elementwise
# operations and their order are the same either way, so in-place results
# are bitwise equal to fresh ones.
def _auxiliary(m, h, u, rho, out):
    out = np.add(h, u, out=out)
    np.multiply(rho, out, out=out)
    return np.add(m, out, out=out)


def _prox_primal(op, h_aux, u, rho, out):
    diff = np.subtract(h_aux, u, out=out)
    return op(diff, rho, out=diff)


def _dual_update(u, h, h_aux, h_prev, out, scratch):
    dh = np.subtract(h, h_aux, out=scratch)
    u_new = np.add(u, dh, out=out)
    r_primal = float(np.vdot(dh, dh).real)
    d_prev = np.subtract(h, h_prev, out=dh)
    return (
        u_new,
        r_primal,
        float(np.vdot(h, h).real),
        float(np.vdot(d_prev, d_prev).real),
        float(np.vdot(u_new, u_new).real),
    )


class Executor:
    """Executes device kernels and accounts their simulated cost.

    Parameters
    ----------
    device:
        A :class:`DeviceSpec` or preset name (``"a100"``, ``"h100"``,
        ``"cpu"``).
    keep_records:
        Retain every :class:`KernelRecord` on the timeline (for tests and
        detailed traces); off by default to bound memory.
    """

    def __init__(self, device="a100", keep_records: bool = False):
        self.device: DeviceSpec = get_device(device)
        self.timeline = Timeline(keep_records=keep_records)
        self._phase = "UNPHASED"
        self.on_kernel = None
        """Optional ``(KernelRecord, seconds) -> None`` observer invoked for
        every charged kernel — the bridge an active telemetry session (see
        :mod:`repro.obs`) uses to mirror the simulated-device stream. None
        (the default) costs nothing."""

    # ------------------------------------------------------------------ #
    # Phase management and raw accounting
    # ------------------------------------------------------------------ #
    @contextmanager
    def phase(self, name: str):
        """Tag all kernels issued inside the block with phase *name*."""
        prev = self._phase
        self._phase = name
        try:
            yield self
        finally:
            self._phase = prev

    @property
    def current_phase(self) -> str:
        return self._phase

    def record(
        self,
        name: str,
        *,
        flops: float = 0.0,
        reads: float = 0.0,
        writes: float = 0.0,
        parallel_work: float = 1.0,
        unique_words: float | None = None,
        working_set_words: float | None = None,
        launches: int = 1,
        serial_steps: int = 0,
        compute_efficiency: float = 1.0,
        traffic_kind: str = "stream",
        utilization_exempt: bool = False,
    ) -> float:
        """Charge a kernel given word counts; returns its simulated seconds.

        ``reads``/``writes``/``unique_words``/``working_set_words`` are in
        *words* (float64); conversion to bytes happens here so call sites
        read like the paper's word-count analysis (Eq. 4).
        """
        rec = KernelRecord(
            name=name,
            phase=self._phase,
            flops=float(flops),
            bytes_read=float(reads) * WORD_BYTES,
            bytes_written=float(writes) * WORD_BYTES,
            parallel_work=float(parallel_work),
            unique_bytes=None if unique_words is None else float(unique_words) * WORD_BYTES,
            working_set=None
            if working_set_words is None
            else float(working_set_words) * WORD_BYTES,
            launches=launches,
            serial_steps=serial_steps,
            compute_efficiency=compute_efficiency,
            traffic_kind=traffic_kind,
            utilization_exempt=utilization_exempt,
        )
        seconds = kernel_seconds(self.device, rec)
        self.timeline.add(rec, seconds)
        if self.on_kernel is not None:
            self.on_kernel(rec, seconds)
        return seconds

    def charge_fixed(self, name: str, seconds: float) -> float:
        """Charge a fixed simulated duration (e.g. host-link streaming that
        the device's own bandwidth model must not re-price)."""
        rec = KernelRecord(
            name=name, phase=self._phase, flops=0.0, bytes_read=0.0,
            bytes_written=0.0, parallel_work=1.0, launches=0,
        )
        self.timeline.add(rec, float(seconds))
        if self.on_kernel is not None:
            self.on_kernel(rec, float(seconds))
        return float(seconds)

    def _out(self, template, shape):
        """Symbolic or concrete result placeholder."""
        return SymArray(shape) if is_symbolic(template) else None

    # ------------------------------------------------------------------ #
    # BLAS-1 style elementwise kernels (DGEAM / custom)
    # ------------------------------------------------------------------ #
    def copy(self, a, name: str = "dcopy"):
        """``out = a`` (DCOPY): reads n, writes n."""
        n = _size(a)
        self.record(name, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(a)) if is_symbolic(a) else np.array(a, copy=True)

    def geam(self, alpha: float, a, beta: float, b, name: str = "dgeam"):
        """``alpha·A + beta·B`` (cuBLAS DGEAM): reads 2n, writes n."""
        n = _size(a)
        self.record(name, flops=3 * n, reads=2 * n, writes=n, parallel_work=n)
        if is_symbolic(a, b):
            return SymArray(_shape(a))
        return alpha * np.asarray(a) + beta * np.asarray(b)

    def add(self, a, b, name: str = "dgeam_add"):
        return self.geam(1.0, a, 1.0, b, name=name)

    def sub(self, a, b, name: str = "dgeam_sub"):
        return self.geam(1.0, a, -1.0, b, name=name)

    def hadamard(self, a, b, name: str = "hadamard"):
        """Element-wise product: reads 2n, writes n."""
        n = _size(a)
        self.record(name, flops=n, reads=2 * n, writes=n, parallel_work=n)
        if is_symbolic(a, b):
            return SymArray(_shape(a))
        return np.asarray(a) * np.asarray(b)

    def elementwise_div(self, a, b, eps: float = 0.0, name: str = "elementwise_div"):
        """``a / (b + eps)``: reads 2n, writes n (MU's core kernel)."""
        n = _size(a)
        self.record(name, flops=2 * n, reads=2 * n, writes=n, parallel_work=n)
        if is_symbolic(a, b):
            return SymArray(_shape(a))
        return np.asarray(a) / (np.asarray(b) + eps)

    def scale(self, alpha: float, a, name: str = "dscal"):
        n = _size(a)
        self.record(name, flops=n, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(a)) if is_symbolic(a) else alpha * np.asarray(a)

    def clip_min(self, a, lo: float = 0.0, name: str = "clip_min"):
        """Elementwise ``max(a, lo)`` (HALS's projection)."""
        n = _size(a)
        self.record(name, flops=n, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(a)) if is_symbolic(a) else np.maximum(np.asarray(a), lo)

    def col_scale(self, a, scale, name: str = "col_scale"):
        """``A · diag(scale)`` — re-applies λ to a normalized factor."""
        n = _size(a)
        self.record(name, flops=n, reads=n + _shape(a)[1], writes=n, parallel_work=n)
        if is_symbolic(a, scale):
            return SymArray(_shape(a))
        return np.asarray(a) * np.asarray(scale)[None, :]

    def normalize_columns(self, a, kind: str = "max", name: str = "normalize_columns"):
        """Column normalization + λ extraction (line 11 of Algorithm 1).

        One reduction pass (column norms) plus one scaling pass: reads 2n,
        writes n + R.
        """
        n = _size(a)
        rank = _shape(a)[1]
        self.record(name, flops=3 * n, reads=2 * n, writes=n + rank, parallel_work=n)
        if is_symbolic(a):
            return SymArray(_shape(a)), SymArray((rank,))
        from repro.kernels.normalize import normalize_factor

        return normalize_factor(np.asarray(a), kind=kind)

    def norm_sq(self, a, name: str = "norm_sq") -> float:
        """Squared Frobenius norm reduction; NaN in symbolic mode."""
        n = _size(a)
        self.record(name, flops=2 * n, reads=n, writes=1, parallel_work=n)
        if is_symbolic(a):
            return float("nan")
        flat = np.asarray(a, dtype=np.float64).ravel()
        return float(np.dot(flat, flat))

    def prox(self, op: ProximalOperator, x, rho: float, name: str | None = None):
        """Apply a proximity operator as a standalone elementwise kernel."""
        n = _size(x)
        self.record(name or f"prox_{op.name}", flops=2 * n, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(x)) if is_symbolic(x) else op(x, rho)

    # ------------------------------------------------------------------ #
    # BLAS-2/3 kernels
    # ------------------------------------------------------------------ #
    def gemm(self, a, b, name: str = "dgemm"):
        """``A @ B``: flops 2·m·k·n, streaming traffic, GEMM efficiency."""
        m, k = _shape(a)
        k2, n = _shape(b)
        if k != k2:
            raise ValueError(f"gemm shape mismatch: {(m, k)} @ {(k2, n)}")
        self._charge_gemm(name, m, k, n)
        if is_symbolic(a, b):
            return SymArray((m, n))
        return np.asarray(a) @ np.asarray(b)

    def _charge_gemm(self, name: str, m: int, k: int, n: int) -> None:
        self.record(
            name,
            flops=2.0 * m * k * n,
            reads=m * k + k * n,
            writes=m * n,
            parallel_work=m * n,
            compute_efficiency=self.device.gemm_efficiency,
        )

    def gemv(self, a, x, name: str = "dgemv"):
        """``A @ x``: flops 2·m·n (HALS's per-rank kernel)."""
        m, n = _shape(a)
        self.record(
            name,
            flops=2.0 * m * n,
            reads=m * n + n,
            writes=m,
            # Every product in the m×n sweep is independent work before the
            # row reductions, so occupancy scales with m·n, not m.
            parallel_work=float(m) * n,
            compute_efficiency=self.device.gemm_efficiency,
        )
        if is_symbolic(a, x):
            return SymArray((m,))
        return np.asarray(a) @ np.asarray(x)

    def gram(self, h, name: str = "dsyrk_gram"):
        """``HᵀH`` (DSYRK): flops I·R², reads I·R, writes R²."""
        i, r = _shape(h)
        self.record(
            name,
            flops=float(i) * r * r,
            reads=float(i) * r,
            writes=r * r,
            parallel_work=float(i) * r,
            compute_efficiency=self.device.gemm_efficiency,
        )
        if is_symbolic(h):
            return SymArray((r, r))
        h = np.asarray(h)
        return h.T @ h

    # ------------------------------------------------------------------ #
    # Factorization / solve kernels
    # ------------------------------------------------------------------ #
    def cholesky(self, s, name: str = "dpotrf"):
        """Cholesky of an R×R SPD matrix: R³/3 flops, R serialized steps.

        Charged with a substantial fixed library-call cost (``launches=40``):
        a cuSOLVER DPOTRF involves a workspace query, allocation, and a
        multi-kernel panel factorization — on small factor matrices this
        setup dominates a whole ADMM iteration, which is what flattens the
        Figure 4 speedups for NIPS/Enron-class tensors.
        """
        r, r2 = _shape(s)
        if r != r2:
            raise ValueError("cholesky needs a square matrix")
        self.record(
            name,
            flops=r**3 / 3.0,
            reads=r * r,
            writes=r * r,
            parallel_work=r * r,
            launches=40,
            serial_steps=r,
            compute_efficiency=self.device.trsm_efficiency,
            utilization_exempt=True,
        )
        if is_symbolic(s):
            return SymArray((r, r))
        return np.linalg.cholesky(np.asarray(s, dtype=np.float64))

    def trsm(self, l_factor, b, lower: bool = True, transpose: bool = False, name: str = "dtrsm"):
        """Triangular solve ``op(L) X = B`` with ``B`` R×n.

        Serialized over R dependent substitution steps — the GPU pathology
        pre-inversion eliminates (Section 4.3.2).
        """
        r, r2 = _shape(l_factor)
        rb, nrhs = _shape(b)
        if r != r2 or rb != r:
            raise ValueError(f"trsm shape mismatch: L {(r, r2)}, B {(rb, nrhs)}")
        self._charge_trsm(name, r, nrhs)
        if is_symbolic(l_factor, b):
            return SymArray((r, nrhs))
        return _solve_triangular(l_factor, b, lower, transpose)

    def _charge_trsm(self, name: str, r: int, nrhs: int) -> None:
        self.record(
            name,
            flops=float(r) * r * nrhs,
            reads=r * r / 2.0 + float(r) * nrhs,
            writes=float(r) * nrhs,
            parallel_work=float(nrhs) * r,
            launches=6,  # blocked multi-kernel solve (cuBLAS DTRSM internals)
            serial_steps=r,
            compute_efficiency=self.device.trsm_efficiency,
            utilization_exempt=True,
        )

    def cholesky_solve(self, l_factor, b):
        """``(LLᵀ)⁻¹ B`` via forward+backward substitution (two DTRSM)."""
        y = self.trsm(l_factor, b, lower=True, transpose=False, name="dtrsm_fwd")
        return self.trsm(l_factor, y, lower=True, transpose=True, name="dtrsm_bwd")

    def spd_inverse(self, l_factor, name: str = "dpotri"):
        """Explicit ``(LLᵀ)⁻¹`` — cuADMM's one-off pre-inversion."""
        r, _ = _shape(l_factor)
        if is_symbolic(l_factor):
            self.cholesky_solve(l_factor, SymArray((r, r)))
            return SymArray((r, r))
        inv = self.cholesky_solve(l_factor, np.eye(r))
        return 0.5 * (inv + inv.T)

    # ------------------------------------------------------------------ #
    # cuADMM fused kernels (Section 4.3.1)
    #
    # The whole-array kernels run the module-level ``_auxiliary`` /
    # ``_prox_primal`` / ``_dual_update`` once; the row-tiled sweep below
    # runs the same bodies tile by tile.
    # ------------------------------------------------------------------ #
    def _charge_fused(self, kernel: str, n: int, name: str | None = None) -> None:
        flops, reads, writes = _FUSED_WORDS[kernel]
        self.record(name or kernel, flops=flops * n, reads=reads * n, writes=writes * n,
                    parallel_work=n)

    def fused_auxiliary(self, m, h, u, rho: float, name: str = "fused_auxiliary"):
        """``H̃ = M + ρ(H + U)`` in one kernel: 3n reads, n writes.

        The unfused equivalent is two DGEAM calls (4n reads, 2n writes) —
        the ~33 % traffic saving the paper quotes.
        """
        self._charge_fused("fused_auxiliary", _size(m), name)
        if is_symbolic(m, h, u):
            return SymArray(_shape(m))
        return _auxiliary(m, h, u, rho, None)

    def fused_prox_primal(self, op: ProximalOperator, h_aux, u, rho: float,
                          name: str = "fused_prox_primal"):
        """``H = prox_r(H̃ - U)`` in one kernel.

        No intermediate global store of ``H̃ - U`` as a *separate kernel's*
        output; the kernel reads H̃ and U (2n) and writes the new primal H
        plus the difference tile the dual kernel consumes (2n). This is the
        conservative traffic accounting: fusion removes kernel round-trips,
        not the fundamental stores.
        """
        self._charge_fused("fused_prox_primal", _size(h_aux), name)
        if is_symbolic(h_aux, u):
            return SymArray(_shape(h_aux))
        return _prox_primal(op, h_aux, u, rho, None)

    def fused_dual_update(self, u, h, h_aux, h_prev, name: str = "fused_dual_update"):
        """Dual update and all four convergence reductions in one kernel.

        Computes ``ΔH = H - H̃``, ``U += ΔH``, and co-computes
        ``‖ΔH‖², ‖H‖², ‖H - H_prev‖², ‖U‖²`` while the operands are in
        registers: 5n reads (U, H, H̃, H_prev, plus the prox kernel's
        difference tile), 2n writes (U and the materialized ΔH), versus the
        unfused path's three DGEAMs plus four separate reduction kernels.
        """
        self._charge_fused("fused_dual_update", _size(u), name)
        if is_symbolic(u, h, h_aux, h_prev):
            nan = float("nan")
            return SymArray(_shape(u)), nan, nan, nan, nan
        return _dual_update(u, h, h_aux, h_prev, None, None)

    def _apply_inverse(self, h_aux, l_factor, g_inv, out=None):
        """``H̃ (LLᵀ)⁻¹`` for a block of rows, uncharged: one GEMM with the
        explicit inverse when there is one, else the forward and backward
        triangular solves on the transposed block."""
        if g_inv is not None:
            return np.matmul(h_aux, g_inv, out=out)
        y = _solve_triangular(l_factor, h_aux.T)
        return _solve_triangular(l_factor, y, transpose=True).T

    def fused_admm_sweep(self, op: ProximalOperator, m, h, u, rho: float, l_factor,
                         g_inv=None, *, h_out=None, u_out=None, scratch=None):
        """One fused cuADMM inner iteration as a single pass over row tiles.

        Per tile of :func:`sweep_tile_rows` rows, while the tile is in
        cache: ``H̃ = M + ρ(H+U)``, ``H̄ = H̃(S+ρI)⁻¹`` (a GEMM with the
        pre-inverted *g_inv* when given, else two triangular solves with
        the Cholesky factor *l_factor*), ``H = prox(H̄-U)``, ``ΔH = H - H̄``,
        ``U += ΔH``, the tile's share of the four residual norms and the
        extremes of the new H and U. ADMM is separable over factor rows, so
        H and U are bitwise equal to the whole-array kernels; the norms are
        sums of per-tile dot products, equal up to rounding.

        Charges the whole-array iteration's kernels once, in its order:
        ``fused_auxiliary``, ``dgemm_apply_inverse`` or ``dtrsm_fwd`` +
        ``dtrsm_bwd``, ``fused_prox_primal``, ``fused_dual_update``. The
        ones after the first solve are charged when every tile is done, so
        a solve that raises (SciPy's finiteness check on a non-finite H̃)
        leaves the iteration charged up to ``dtrsm_fwd``, as the
        whole-array loop was.

        ``h_out``/``u_out`` receive the new H and U (neither may alias
        *h* or *u*); ``scratch`` is a pair of buffers of at least one tile
        for H̃ (then ΔH) and H̄. Returns ``(H, U, ‖ΔH‖², ‖H‖², ‖H−H_prev‖²,
        ‖U‖², peak)`` where ``peak = max(|H|, |U|)``, NaN if either holds a
        NaN; NaN scalars and shape-only arrays in symbolic mode.
        """
        rows, rank = _shape(m)
        n = rows * rank
        self._charge_fused("fused_auxiliary", n)
        if g_inv is not None:
            self._charge_gemm("dgemm_apply_inverse", rows, rank, rank)
        else:
            self._charge_trsm("dtrsm_fwd", rank, rows)
        if is_symbolic(m, h, u):
            if g_inv is None:
                self._charge_trsm("dtrsm_bwd", rank, rows)
            self._charge_fused("fused_prox_primal", n)
            self._charge_fused("fused_dual_update", n)
            nan = float("nan")
            return SymArray((rows, rank)), SymArray((rows, rank)), nan, nan, nan, nan, nan
        tile_rows = sweep_tile_rows(op, rows, rank)
        if scratch is None:
            scratch = (np.empty((tile_rows, rank)), np.empty((tile_rows, rank)))
        h_out = np.empty((rows, rank)) if h_out is None else h_out
        u_out = np.empty((rows, rank)) if u_out is None else u_out
        r_primal = h_norm = r_dual = u_norm = peak = 0.0
        for start, stop in _row_tiles(rows, tile_rows):
            aux, bar = scratch[0][: stop - start], scratch[1][: stop - start]
            h_prev, u_prev = h[start:stop], u[start:stop]
            _auxiliary(m[start:stop], h_prev, u_prev, rho, aux)
            bar = self._apply_inverse(aux, l_factor, g_inv, out=bar)
            h_tile = _prox_primal(op, bar, u_prev, rho, h_out[start:stop])
            u_tile, dr_primal, dh_norm, dr_dual, du_norm = _dual_update(
                u_prev, h_tile, bar, h_prev, u_out[start:stop], aux,
            )
            r_primal += dr_primal
            h_norm += dh_norm
            r_dual += dr_dual
            u_norm += du_norm
            peak = _peak(peak, _peak(float(h_tile.max()), -float(h_tile.min())))
            peak = _peak(peak, _peak(float(u_tile.max()), -float(u_tile.min())))
        if g_inv is None:
            self._charge_trsm("dtrsm_bwd", rank, rows)
        self._charge_fused("fused_prox_primal", n)
        self._charge_fused("fused_dual_update", n)
        return h_out, u_out, r_primal, h_norm, r_dual, u_norm, peak
