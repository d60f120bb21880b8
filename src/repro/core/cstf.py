"""The cSTF driver: Algorithm 1 (AO-ADMM) with full phase instrumentation.

Per outer iteration and mode ``n`` the driver performs the paper's four
phases:

1. **GRAM** — ``S⁽ⁿ⁾ = ⊛_{m≠n} G⁽ᵐ⁾`` from cached Gram matrices, plus the
   refresh ``G⁽ⁿ⁾ = H⁽ⁿ⁾ᵀH⁽ⁿ⁾`` after the update (lines 8 and 12).
2. **MTTKRP** — ``M⁽ⁿ⁾`` through the configured sparse format's kernel
   (line 9); cost charged analytically from the tensor statistics so the
   simulated time reflects the device, not the host's NumPy speed.
3. **UPDATE** — the constraint update (line 10), e.g. ADMM/cuADMM.
4. **NORMALIZE** — column normalization with λ absorption (line 11).

After the last mode, **FIT** evaluates ``1 - ‖X - X̂‖/‖X‖`` from the last
mode's MTTKRP and the Gram cache (see :func:`_fit_from_mttkrp`) instead of
re-gathering every factor at every nonzero.

The same code path serves concrete tensors and paper-scale
:class:`~repro.machine.analytic.TensorStats` (symbolic factors).
"""

from __future__ import annotations

import errno
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import CstfConfig
from repro.core.kruskal import KruskalTensor
from repro.core.trace import (
    PHASE_FIT,
    PHASE_GRAM,
    PHASE_MTTKRP,
    PHASE_NORMALIZE,
    PHASE_UPDATE,
)
from repro.kernels.gram import hadamard_of_grams
from repro.kernels.mttkrp_alto import mttkrp_alto
from repro.kernels.mttkrp_blco import mttkrp_blco
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.kernels.mttkrp_csf import mttkrp_csf
from repro.machine.analytic import TensorStats, charge_mttkrp
from repro.machine.executor import Executor
from repro.machine.symbolic import SymArray
from repro.obs import resolve_telemetry
from repro.resilience.checkpoint import (
    CheckpointCorrupt,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.events import (
    CHECKPOINT_CORRUPT,
    CHECKPOINT_RESUMED,
    CHECKPOINT_SAVED,
    CHECKPOINT_SKIPPED,
    ResilienceEvent,
)
from repro.resilience.guards import ensure_finite
from repro.resilience.policy import STATE_KEY, ResilienceContext, ResiliencePolicy
from repro.tensor.alto import AltoTensor
from repro.tensor.blco import BlcoTensor
from repro.tensor.coo import SparseTensor
from repro.tensor.csf import CsfTensor
from repro.updates.base import get_update
from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = ["CstfResult", "cstf"]


@dataclass
class CstfResult:
    """Everything a cSTF run produces.

    ``kruskal`` is ``None`` for analytic (paper-scale) runs, where only the
    simulated timeline is meaningful.
    """

    kruskal: KruskalTensor | None
    executor: Executor
    iterations: int
    converged: bool
    fits: list[float] = field(default_factory=list)

    events: list[ResilienceEvent] = field(default_factory=list)
    """Every recovery/injection/checkpoint action taken during the run."""

    start_iteration: int = 0
    """Outer iteration the run (re)started from; nonzero after a resume."""

    telemetry: object = None
    """The run's :class:`~repro.obs.RunRecord` when telemetry was enabled
    (spans, simulated kernel stream, resilience events, metrics summary);
    ``None`` for untraced runs."""

    @property
    def timeline(self):
        return self.executor.timeline

    @property
    def fit(self) -> float | None:
        return self.fits[-1] if self.fits else None

    @property
    def recoveries(self) -> int:
        """Number of resilience events excluding checkpoint bookkeeping."""
        skip = (CHECKPOINT_SAVED, CHECKPOINT_RESUMED)
        return sum(1 for e in self.events if e.kind not in skip)

    def per_iteration_seconds(self) -> float:
        """Simulated seconds per outer iteration over the four timed phases
        (iterations executed by *this* process, for resumed runs)."""
        timed = sum(
            self.timeline.seconds(p)
            for p in (PHASE_GRAM, PHASE_MTTKRP, PHASE_UPDATE, PHASE_NORMALIZE)
        )
        return timed / max(self.iterations - self.start_iteration, 1)


class _ConcreteMttkrp:
    """Holds the per-format structures and computes M plus its cost."""

    def __init__(self, tensor: SparseTensor, fmt: str):
        self.fmt = fmt
        self.stats = TensorStats.from_coo(tensor)
        self.ndim = tensor.ndim
        if fmt == "coo":
            self.data = tensor
        elif fmt == "alto":
            self.data = AltoTensor.from_coo(tensor)
        elif fmt == "blco":
            self.data = BlcoTensor.from_coo(tensor)
        elif fmt == "csf":
            self.data = [CsfTensor.from_coo(tensor, root_mode=m) for m in range(tensor.ndim)]
        else:  # pragma: no cover - config validates
            raise ValueError(fmt)

    def compute(self, ex: Executor, factors, mode: int, rank: int):
        charge_mttkrp(ex, self.stats, rank, mode, self.fmt)
        if self.fmt == "coo":
            return mttkrp_coo(self.data, factors, mode)
        if self.fmt == "alto":
            return mttkrp_alto(self.data, factors, mode)
        if self.fmt == "blco":
            return mttkrp_blco(self.data, factors, mode)
        return mttkrp_csf(self.data[mode], factors, mode)


class _SymbolicMttkrp:
    """Charges MTTKRP cost from statistics; returns shape-only results."""

    def __init__(self, stats: TensorStats, fmt: str):
        self.fmt = fmt
        self.stats = stats
        self.ndim = stats.ndim

    def compute(self, ex: Executor, factors, mode: int, rank: int):
        charge_mttkrp(ex, self.stats, rank, mode, self.fmt)
        return SymArray((self.stats.shape[mode], rank))


def _init_factors(shape, rank, nonneg: bool, seed, init_factors=None):
    if init_factors is not None:
        factors = _coerce_init(shape, rank, init_factors)
        if nonneg:
            factors = [np.maximum(f, 0.0) for f in factors]
        return factors
    rng = as_generator(seed)
    factors = []
    for dim in shape:
        f = rng.random((dim, rank))
        if not nonneg:
            f = f - 0.5
        factors.append(np.asarray(f, dtype=np.float64))
    return factors


def _coerce_init(shape, rank, init):
    """Validate a warm start (list of factors or a KruskalTensor)."""
    if isinstance(init, KruskalTensor):
        if init.shape != tuple(shape) or init.rank != rank:
            raise ValueError(
                f"warm-start model {init.shape}/rank {init.rank} does not match "
                f"tensor {tuple(shape)}/rank {rank}"
            )
        # Fold λ into the first factor so the model is preserved exactly.
        factors = [np.array(f, dtype=np.float64) for f in init.factors]
        factors[0] = factors[0] * init.weights[None, :]
        return factors
    factors = [np.array(f, dtype=np.float64) for f in init]
    if len(factors) != len(shape):
        raise ValueError(f"expected {len(shape)} warm-start factors, got {len(factors)}")
    for n, (f, dim) in enumerate(zip(factors, shape)):
        if f.shape != (dim, rank):
            raise ValueError(
                f"warm-start factor {n} has shape {f.shape}, expected {(dim, rank)}"
            )
    return factors


def cstf(tensor, config: CstfConfig | None = None, **overrides) -> CstfResult:
    """Run constrained sparse tensor factorization (Algorithm 1).

    Parameters
    ----------
    tensor:
        A :class:`SparseTensor` (concrete run) or
        :class:`~repro.machine.analytic.TensorStats` (analytic, paper-scale
        run; the fit and factors are not produced).
    config / overrides:
        A :class:`CstfConfig`, or keyword overrides of its fields.

    Returns
    -------
    CstfResult
        Factors (as a :class:`KruskalTensor`), fit trace, and the simulated
        device timeline.
    """
    if config is None:
        config = CstfConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")

    # Telemetry is resolved once per run and installed as the ambient
    # session so deep call sites (MTTKRP kernels, ADMM inner loops) can
    # self-instrument; the default resolves to a no-op with zero overhead.
    tel = resolve_telemetry(config.telemetry)
    with tel.activate(), tel.span("run"):
        result = _cstf_run(tensor, config, tel)
    tel.flush()
    return result


def _cstf_run(tensor, config: CstfConfig, tel) -> CstfResult:
    analytic = isinstance(tensor, TensorStats)
    update = get_update(config.update, **config.update_params)
    ex = Executor(config.device)
    tel.attach_executor(ex)
    rank = config.rank
    shape = tensor.shape
    tel.set_meta(
        kind="cstf", device=ex.device.name, rank=rank,
        update=getattr(update, "name", str(config.update)),
        mttkrp_format=config.mttkrp_format, analytic=analytic,
    )

    # Resilience plumbing: one policy + event log per run, threaded to the
    # update methods through their state dict. Analytic (symbolic) runs have
    # no numerics to guard.
    policy = ResiliencePolicy.resolve(config.resilience)
    ctx = ResilienceContext(policy) if (policy is not None and not analytic) else None
    if ctx is not None:
        tel.attach_events(ctx.events)
    injector = config.fault_injector
    require(
        injector is None or not analytic,
        "fault injection requires a concrete tensor (analytic runs have no numerics)",
    )

    checkpoint = None
    if config.resume_from is not None:
        require(not analytic, "resume_from requires a concrete tensor")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CheckpointCorrupt)
            checkpoint = load_checkpoint(config.resume_from)
        for w in caught:
            # A torn primary generation fell back to the rotated .prev:
            # surface the degradation on the run's event log (and keep the
            # warning visible to callers outside this capture).
            if not issubclass(w.category, CheckpointCorrupt):
                warnings.warn_explicit(
                    w.message, w.category, w.filename, w.lineno
                )
                continue
            if ctx is not None:
                ctx.events.record(
                    CHECKPOINT_CORRUPT, "CHECKPOINT",
                    detail=str(w.message),
                )
        require(
            checkpoint.shape == tuple(shape),
            f"checkpoint shape {checkpoint.shape} does not match tensor {tuple(shape)}",
        )
        require(
            checkpoint.rank == rank,
            f"checkpoint rank {checkpoint.rank} does not match config rank {rank}",
        )
        if tel.enabled:
            # Continue the interrupted run's telemetry: cumulative counters
            # and histograms resume without a gap (iteration indices follow
            # from the restored outer-iteration counter).
            tel.metrics.load_state(checkpoint.telemetry_state)
            tel.counter("cstf.resumes")

    if analytic:
        mttkrp_engine = _SymbolicMttkrp(tensor, config.mttkrp_format)
        factors = [SymArray((dim, rank)) for dim in shape]
        weights = SymArray((rank,))
    else:
        if not isinstance(tensor, SparseTensor):
            raise TypeError(
                f"tensor must be SparseTensor or TensorStats, got {type(tensor).__name__}"
            )
        if config.engine is not None:
            from repro.engine.driver import EngineMttkrp

            mttkrp_engine = EngineMttkrp(
                tensor, config.mttkrp_format, config.engine,
                events=ctx.events if ctx is not None else None,
                injector=injector,
            )
        else:
            mttkrp_engine = _ConcreteMttkrp(tensor, config.mttkrp_format)
        if checkpoint is not None:
            factors = [np.array(f, dtype=np.float64) for f in checkpoint.factors]
            weights = np.array(checkpoint.weights, dtype=np.float64)
        else:
            factors = _init_factors(
                shape, rank, update.nonnegative, config.seed, config.init_factors
            )
            weights = np.ones(rank, dtype=np.float64)

    # Analytic runs must not allocate concrete per-mode state (dual
    # variables at paper scale would be gigabytes); updates detect symbolic
    # operands and synthesize shape-only state on the fly.
    state = {} if analytic else update.init_state(tuple(shape), rank)
    if checkpoint is not None:
        # Restore the update method's array state (ADMM duals) and, for
        # resumed fault campaigns, the injector's RNG stream.
        state.update(checkpoint.state_arrays)
        if injector is not None and checkpoint.rng_state is not None:
            injector.set_rng_state(checkpoint.rng_state)
    if ctx is not None:
        state[STATE_KEY] = ctx
    ndim = len(shape)

    # Gram λ-rescale (engine opt-in): compute the Gram on the *unnormalized*
    # update result and rescale it by the column norms instead of running a
    # separate norm pass. λ² is exactly diag(G) under normalize="2", so the
    # norm computation comes for free; numerically equivalent but not
    # bit-identical to the seed path, hence opt-in and disabled under fault
    # injection (an injected factor would desynchronize the cached Gram).
    gram_rescale = (
        not analytic
        and config.engine is not None
        and config.engine.gram_rescale
        and config.normalize == "2"
        and injector is None
    )

    if checkpoint is not None:
        # The Gram cache resumes from the checkpoint verbatim — recomputing
        # it would give the same bits, but the saved arrays are the record.
        grams = [np.array(g, dtype=np.float64) for g in checkpoint.grams]
        if ctx is not None:
            ctx.events.record(
                CHECKPOINT_RESUMED, "CHECKPOINT", iteration=checkpoint.iteration,
                detail=f"resumed from {config.resume_from} at outer iteration "
                       f"{checkpoint.iteration}",
            )
    else:
        # Initial Gram cache (line 4 of Algorithm 1).
        with ex.phase(PHASE_GRAM), tel.span("gram_init"):
            grams = [ex.gram(f) for f in factors]

    fits: list[float] = list(checkpoint.fits) if checkpoint is not None else []
    converged = False
    start_iteration = checkpoint.iteration if checkpoint is not None else 0
    iterations = start_iteration
    events = ctx.events if ctx is not None else None
    for _ in range(start_iteration, config.max_iters):
        iterations += 1
        iter_span = tel.open_span("outer_iter", iteration=iterations)
        tel.counter("cstf.outer_iterations")
        # The last mode's MTTKRP, kept for the fit identity; stays None when
        # it was never computed (tensor-based updates) or was repaired.
        fit_mttkrp = None
        injected_before = injector.injected if injector is not None else 0
        for mode in range(ndim):
            needs_tensor = getattr(update, "needs_tensor", False)
            if not needs_tensor:
                with ex.phase(PHASE_GRAM), tel.span("gram", mode=mode):
                    s_mat = _gram_chain(ex, grams, mode, rank, analytic)
                if injector is not None:
                    s_mat = injector.inject(
                        PHASE_GRAM, s_mat, mode=mode, iteration=iterations,
                        events=events,
                    )
                with ex.phase(PHASE_MTTKRP), tel.span("mttkrp", mode=mode):
                    m_mat = mttkrp_engine.compute(ex, factors, mode, rank)
                if injector is not None:
                    m_mat = injector.inject(
                        PHASE_MTTKRP, m_mat, mode=mode, iteration=iterations,
                        events=events,
                    )
                # Phase-boundary sentinel (host-side; charges no device time).
                m_checked = ensure_finite(
                    m_mat, ctx, phase=PHASE_MTTKRP, what="MTTKRP result",
                    mode=mode, iteration=iterations,
                )
                if mode == ndim - 1 and m_checked is m_mat:
                    fit_mttkrp = m_mat
                m_mat = m_checked
            with ex.phase(PHASE_UPDATE), tel.span("update", mode=mode):
                # The update solves for the unnormalized factor H·diag(λ);
                # reapply the weights to warm-start from the current model.
                h_start = ex.col_scale(factors[mode], weights, name="col_scale_lambda")
                if needs_tensor:
                    # Generalized-loss updates (e.g. KL-MU) work directly on
                    # the tensor instead of the (M, S) sufficient statistics.
                    h_new = update.update_with_tensor(
                        ex, mode, tensor, factors, h_start, state
                    )
                else:
                    h_new = update.update(ex, mode, m_mat, s_mat, h_start, state)
            if injector is not None:
                h_new = injector.inject(
                    PHASE_UPDATE, h_new, mode=mode, iteration=iterations,
                    events=events,
                )
            h_new = ensure_finite(
                h_new, ctx, phase=PHASE_UPDATE, what=f"mode-{mode} factor update",
                mode=mode, iteration=iterations,
            )
            g_unnorm = None
            if gram_rescale:
                # DSYRK on the unnormalized factor; its diagonal doubles as
                # the squared column norms the normalize step needs.
                with ex.phase(PHASE_GRAM), tel.span("gram", mode=mode, refresh=True):
                    g_unnorm = ex.gram(h_new)
            with ex.phase(PHASE_NORMALIZE), tel.span("normalize", mode=mode):
                if gram_rescale:
                    lam = np.sqrt(np.diagonal(g_unnorm).copy())
                    lam = np.where(lam > 0.0, lam, 1.0)
                    factors[mode] = ex.col_scale(
                        h_new, 1.0 / lam, name="col_scale_normalize"
                    )
                    weights = lam
                else:
                    factors[mode], weights = ex.normalize_columns(
                        h_new, kind=config.normalize
                    )
            if injector is not None:
                factors[mode] = injector.inject(
                    PHASE_NORMALIZE, factors[mode], mode=mode,
                    iteration=iterations, events=events,
                )
            factors[mode] = ensure_finite(
                factors[mode], ctx, phase=PHASE_NORMALIZE,
                what=f"normalized mode-{mode} factor", mode=mode,
                iteration=iterations,
            )
            weights = ensure_finite(
                weights, ctx, phase=PHASE_NORMALIZE, what="weight vector λ",
                mode=mode, iteration=iterations,
            )
            if gram_rescale:
                with ex.phase(PHASE_GRAM), tel.span("gram_rescale", mode=mode):
                    inv = 1.0 / weights
                    grams[mode] = g_unnorm * np.outer(inv, inv)
                    ex.record(
                        "gram_rescale",
                        flops=2.0 * rank * rank,
                        reads=float(rank * rank),
                        writes=float(rank * rank),
                        parallel_work=float(rank * rank),
                    )
                tel.counter("engine.gram.rescales")
            else:
                with ex.phase(PHASE_GRAM), tel.span("gram", mode=mode, refresh=True):
                    grams[mode] = ex.gram(factors[mode])

        if not analytic and config.compute_fit:
            with ex.phase(PHASE_FIT), tel.span("fit", iteration=iterations) as fit_span:
                fit = None
                if fit_mttkrp is not None and (
                    injector is None or injector.injected == injected_before
                ):
                    fit = _fit_from_mttkrp(
                        tensor, fit_mttkrp, factors[-1], weights, grams
                    )
                if fit is None or 1.0 - fit < _EXACT_FIT_MARGIN:
                    # No usable M (tensor-based update, repaired or injected
                    # M), or a near-exact model whose residual is lost to
                    # cancellation: evaluate the model at the nonzeros.
                    model = KruskalTensor([f.copy() for f in factors], weights.copy())
                    fit = model.fit(tensor)
                fits.append(fit)
                _charge_fit(ex, tensor, rank)
                if fit_span is not None:
                    # Stamp the value on the span so trace consumers (the
                    # run doctor's oscillation detector) can read the fit
                    # trajectory without the metrics summary.
                    fit_span.attrs["fit"] = fits[-1]
            tel.observe("cstf.fit", fits[-1])
            if len(fits) >= 2:
                tel.observe("cstf.fit_delta", fits[-1] - fits[-2])
            tel.gauge("cstf.last_fit", fits[-1])
            if (
                config.tol > 0.0
                and len(fits) >= 2
                and abs(fits[-1] - fits[-2]) < config.tol
            ):
                converged = True

        if injector is not None and tel.enabled and injector.draw_disk_full(
            "sink", iteration=iterations,
            events=ctx.events if ctx is not None else None,
        ):
            # The telemetry sink's turn to hit ENOSPC: arm the real
            # degradation path (null sink + obs.sink.dropped) and carry on.
            arm = getattr(tel, "inject_sink_failure", None)
            if arm is not None:
                arm()

        if (
            config.checkpoint_every > 0
            and not analytic
            and iterations % config.checkpoint_every == 0
        ):
            with tel.span("checkpoint", iteration=iterations):
                _write_checkpoint(config, update, shape, rank, iterations,
                                  factors, weights, grams, fits, state, ctx, tel)
        tel.close_span(iter_span)
        if config.on_iteration is not None:
            try:
                config.on_iteration(iterations)
            except BaseException:
                # Cooperative interruption (the supervisor's in-run deadline
                # guard, a campaign driver's stop signal): the just-completed
                # iterate is checkpointed before the interrupt propagates, so
                # the interrupted run resumes bit-identically.
                if config.checkpoint_path is not None and not analytic:
                    _write_checkpoint(config, update, shape, rank, iterations,
                                      factors, weights, grams, fits, state,
                                      ctx, tel)
                raise
        if converged:
            break

    kruskal = None if analytic else KruskalTensor(factors, weights)
    return CstfResult(
        kruskal=kruskal,
        executor=ex,
        iterations=iterations,
        converged=converged,
        fits=fits,
        events=list(ctx.events) if ctx is not None else [],
        start_iteration=start_iteration,
        telemetry=tel.record if tel.enabled else None,
    )


def _write_checkpoint(config, update, shape, rank, iteration, factors, weights,
                      grams, fits, state, ctx, tel) -> None:
    """Persist the AO-loop state atomically and log the save.

    Persistence never fails a run that can still compute: a write
    ``OSError`` (ENOSPC and friends) is recorded as a ``checkpoint_skipped``
    event and swallowed — ``save_checkpoint`` rotates generations only
    after the temp write succeeds, so the last completed checkpoint (and
    its ``.prev``) survive intact.
    """
    injector = config.fault_injector
    state_arrays = {k: v for k, v in state.items() if k != STATE_KEY}
    events = ctx.events if ctx is not None else None
    try:
        if injector is not None and injector.draw_disk_full(
            "checkpoint", iteration=iteration, events=events
        ):
            raise OSError(errno.ENOSPC, "injected disk_full fault")
        save_checkpoint(
            config.checkpoint_path,
            iteration=iteration,
            factors=factors,
            weights=weights,
            grams=grams,
            fits=fits,
            state_arrays=state_arrays,
            rng_state=injector.rng_state() if injector is not None else None,
            telemetry_state=tel.metrics.state_dict() if tel.enabled else None,
            meta={
                "shape": [int(d) for d in shape],
                "rank": int(rank),
                "update": getattr(update, "name", str(config.update)),
            },
        )
    except OSError as exc:
        tel.counter("resilience.checkpoint.skips")
        if ctx is not None:
            ctx.events.record(
                CHECKPOINT_SKIPPED, "CHECKPOINT", iteration=iteration,
                detail=f"checkpoint write to {config.checkpoint_path} failed "
                       f"({type(exc).__name__}: {exc}); keeping the last "
                       f"completed checkpoint and continuing",
                error=str(exc),
            )
        return
    if ctx is not None:
        ctx.events.record(
            CHECKPOINT_SAVED, "CHECKPOINT", iteration=iteration,
            detail=f"checkpoint written to {config.checkpoint_path} "
                   f"after outer iteration {iteration}",
        )


def _gram_chain(ex: Executor, grams, skip: int, rank: int, analytic: bool):
    """Hadamard chain over the cached Grams, excluding *skip* (line 8)."""
    picked = [g for m, g in enumerate(grams) if m != skip]
    if len(picked) == 1:
        return ex.copy(picked[0], name="dcopy_gram")
    out = picked[0]
    for g in picked[1:]:
        out = ex.hadamard(out, g, name="hadamard_gram")
    return out


_EXACT_FIT_MARGIN = 1e-4
"""Below this ``1 - fit`` the driver evaluates the fit directly.

Both fit formulas cancel ``‖X‖² - 2⟨X, X̂⟩ + ‖X̂‖²`` in float64; their
rounding differs by a few ulps of ``‖X‖²``, which moves the fit by about
``ε / (1 - fit)``. Away from an exact model that is far below 1e-9; near
one it grows to ``√ε``, so the direct fit keeps the reported value equal to
:meth:`KruskalTensor.fit` there."""


def _fit_from_mttkrp(tensor: SparseTensor, m_last, h_last, weights, grams) -> float:
    """The fit ``1 - ‖X - X̂‖/‖X‖`` from the last mode's MTTKRP.

    ``M⁽ᴺ⁾`` already sums every nonzero against the other modes' factors,
    so ``⟨X, X̂⟩ = Σᵣ λᵣ Σᵢ M⁽ᴺ⁾[i,r]·H⁽ᴺ⁾[i,r]`` and ``‖X̂‖² = λᵀ(⊛ₘ G⁽ᵐ⁾)λ``
    from the Gram cache: O(I_N·R + N·R²) instead of the O(nnz·R·N) gather
    of :meth:`KruskalTensor.fit`. Same formula, different summation order,
    so the two agree to rounding (see ``docs/PERFORMANCE.md``).
    """
    x_norm = tensor.norm()
    require(x_norm > 0.0, "cannot compute fit against an all-zero tensor")
    inner = float(weights @ np.einsum("ir,ir->r", m_last, h_last))
    model_sq = float(weights @ hadamard_of_grams(grams) @ weights)
    resid = max(x_norm**2 - 2.0 * inner + model_sq, 0.0)
    return 1.0 - float(np.sqrt(resid)) / x_norm


def _charge_fit(ex: Executor, tensor: SparseTensor, rank: int) -> None:
    """Charge the fit evaluation: a TTV-like pass over the nonzeros plus the
    R×R norm form. Reported under the FIT phase, outside the paper's timed
    region."""
    nnz = float(tensor.nnz)
    ndim = tensor.ndim
    ex.record(
        "fit_inner_product",
        flops=nnz * rank * (ndim + 1),
        reads=nnz * (ndim + 1) + nnz * ndim * rank * 0.2,
        writes=1,
        parallel_work=nnz,
        traffic_kind="gather",
    )
