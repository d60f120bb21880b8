"""Format dispatch for the engine: cached, chunked, optionally sharded MTTKRP.

:func:`engine_mttkrp` is the engine's analogue of the per-format seed
kernels. Per format:

- ``coo`` — one cached plan per mode over the canonical COO order;
  bitwise identical to :func:`~repro.kernels.mttkrp_coo.mttkrp_coo`.
- ``alto`` — the ALTO linearization and its decoded coordinate matrix are
  cached once per tensor (the seed delinearizes per call); plans are built
  over the ALTO nonzero order, so the summation order — and the bits —
  match :func:`~repro.kernels.mttkrp_alto.mttkrp_alto`.
- ``blco`` — the BLCO conversion and per-block decoded plans are cached;
  blocks accumulate into the output in block order exactly like
  :func:`~repro.kernels.mttkrp_blco.mttkrp_blco`. Executed serially (the
  per-block structure is the paper's own blocking).
- ``hicoo`` — the HiCOO blocking and per-block plans are cached; blocks
  accumulate serially in block order, value-first then ascending-mode
  multiplies, so the bits match
  :func:`~repro.kernels.mttkrp_hicoo.mttkrp_hicoo`.
- ``csf`` — per-root mode trees are cached once per tensor and handed to
  the unchanged :func:`~repro.kernels.mttkrp_csf.mttkrp_csf` tree walk
  (the seed driver re-roots through COO when the cached tree's root
  differs; the cache keeps all roots).

Sharding applies to the ``coo`` and ``alto`` plan paths.

Robustness: a format conversion or plan build that fails raises
:class:`PlanBuildError`, which the run supervisor treats as a trigger for
the COO format fallback. A failure *during execution* of cached state
(e.g. a corrupted plan that dodged the integrity probe) triggers a
replan-once recovery: the tensor's cache entry is invalidated, the repair
is counted (``engine.plan.repairs``) and logged (``plan_repaired``), and
the call re-dispatches from fresh plans; only a second failure propagates.
The ``corrupt_plan`` chaos fault (:class:`~repro.resilience.faults
.FaultInjector`) deliberately corrupts the cached plans before lookup to
prove this self-heal fires.

:class:`EngineMttkrp` is the drop-in replacement for the cstf driver's
``_ConcreteMttkrp``: it charges the *identical* simulated device cost
(:func:`~repro.machine.analytic.charge_mttkrp`), so engine-enabled runs
report the same device timelines — only the host wall-clock changes.
"""

from __future__ import annotations

import os

import numpy as np

from repro.engine.config import EngineConfig
from repro.engine.execute import run_plan
from repro.engine.plan import PlanCache, get_plan_cache
from repro.kernels.mttkrp import check_factors
from repro.kernels.mttkrp_blco import _record_block_balance
from repro.kernels.mttkrp_csf import mttkrp_csf
from repro.machine.analytic import TensorStats, charge_mttkrp
from repro.obs import current_telemetry
from repro.resilience.events import PLAN_REPAIRED
from repro.utils.validation import check_axis

__all__ = ["PlanBuildError", "engine_mttkrp", "EngineMttkrp"]


class PlanBuildError(RuntimeError):
    """A format conversion or plan build failed before execution started.

    Distinct from execution failures on purpose: no partial work has been
    done, so the caller (typically :class:`~repro.resilience.supervisor
    .RunSupervisor`) can safely fall back to the plain COO format.
    """


def _build_alto(tensor):
    from repro.tensor.alto import AltoTensor

    return AltoTensor.from_coo(tensor)


def _build_blco(tensor):
    from repro.tensor.blco import BlcoTensor

    return BlcoTensor.from_coo(tensor)


def _build_hicoo(tensor):
    from repro.tensor.hicoo import HicooTensor

    return HicooTensor.from_coo(tensor)


def _build_csf_forest(tensor):
    from repro.tensor.csf import CsfTensor

    return [CsfTensor.from_coo(tensor, root_mode=m) for m in range(tensor.ndim)]


def _convert(cache, tensor, name, build, validate):
    """Cached format conversion, wrapping build failures in PlanBuildError."""
    try:
        return cache.format(tensor, name, build, validate=validate)
    except Exception as exc:
        raise PlanBuildError(
            f"{name} conversion failed: {type(exc).__name__}: {exc}"
        ) from exc


_ENGINE_FORMATS = ("coo", "alto", "blco", "hicoo", "csf")


def _dispatch(tensor, factors, fmats, mode, fmt, cfg, cache, rank, faults, events):
    if fmt == "coo":
        plan = cache.plan(tensor, mode, validate=cfg.validate, events=events)
        return run_plan(
            plan, fmats, mode, tensor.shape[mode], rank, cfg,
            faults=faults, events=events,
        )

    if fmt == "alto":
        alto = _convert(cache, tensor, "alto", _build_alto, cfg.validate)
        decoded = _convert(
            cache, tensor, "alto_indices", lambda _t: alto.all_mode_indices(),
            cfg.validate,
        )
        plan = cache.plan(
            tensor, mode, fmt="alto", indices=decoded, values=alto.values,
            validate=cfg.validate, events=events,
        )
        return run_plan(
            plan, fmats, mode, tensor.shape[mode], rank, cfg,
            faults=faults, events=events,
        )

    if fmt in ("blco", "hicoo"):
        build = _build_blco if fmt == "blco" else _build_hicoo
        blocked = _convert(cache, tensor, fmt, build, cfg.validate)
        if fmt == "blco":
            # The block-balance gauges the seed kernel emits (run doctor).
            _record_block_balance(blocked)
        out = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
        serial = EngineConfig(chunk=cfg.chunk, shards=1)
        for plan in cache.block_plans(
            tensor, blocked, mode, validate=cfg.validate, fmt=fmt
        ):
            # Per-block accumulation into a private buffer then `out +=`,
            # matching the seed kernel's block order bit for bit.
            out += run_plan(plan, fmats, mode, tensor.shape[mode], rank, serial)
        return out

    if fmt == "csf":
        forest = _convert(cache, tensor, "csf", _build_csf_forest, cfg.validate)
        # The undecorated tree walk: EngineMttkrp opens the kernel span.
        return mttkrp_csf.__wrapped__(forest[mode], factors, mode)

    raise ValueError(f"unknown engine format {fmt!r}")


def engine_mttkrp(
    tensor,
    factors,
    mode: int,
    fmt: str = "coo",
    cfg: EngineConfig | None = None,
    cache: PlanCache | None = None,
    *,
    faults=None,
    events=None,
) -> np.ndarray:
    """Cached/sharded MTTKRP over a COO tensor, dispatched by format.

    ``faults`` (a :class:`~repro.resilience.faults.FaultInjector`) enables
    the chaos paths: ``corrupt_plan`` draws corrupt the cached plans before
    lookup, and shard-level faults ride into the sharded executor. Every
    recovery is logged to ``events`` when given.
    """
    cfg = cfg if cfg is not None else EngineConfig()
    # `is not None`, not truthiness: an empty PlanCache has len() == 0.
    cache = cache if cache is not None else get_plan_cache()
    mode = check_axis(mode, tensor.ndim)
    if fmt not in _ENGINE_FORMATS:
        raise ValueError(f"unknown engine format {fmt!r}")
    rank = check_factors(tensor.shape, factors, mode)
    fmats = [np.asarray(f, dtype=np.float64) for f in factors]

    if cfg.plan_store is not None and (
        cache.store is None or os.fspath(cache.store.root) != cfg.plan_store
    ):
        from repro.engine.plan_store import PlanStore

        # The explicit per-store budget wins; the engine-wide disk budget
        # is the default bound for cached artifacts.
        cache.store = PlanStore(
            cfg.plan_store,
            max_bytes=cfg.plan_store_bytes or cfg.disk_budget_bytes or None,
        )

    if faults is not None and faults.draw_plan_fault(mode=mode, events=events):
        cache.corrupt(tensor)

    if (
        faults is not None
        and cache.store is not None
        and faults.draw_disk_full("store", mode=mode, events=events)
    ):
        # The next store publish hits a synthetic ENOSPC; the store must
        # skip persistence (store_skipped) and the run keeps its in-memory
        # plan.
        cache.store.fail_next_write = True

    if (
        faults is not None
        and cache.store is not None
        and faults.draw_store_fault(mode=mode, events=events)
    ):
        # Damage the on-disk entry this dispatch would read and drop the
        # in-memory plans, forcing the read path through the corrupt entry;
        # the store quarantines it and the lookup replans.
        from repro.engine.plan import _content_hash
        from repro.engine.plan_store import store_key as _skey

        if cache.store.corrupt(_skey(_content_hash(tensor), fmt, mode)):
            cache.drop_plans(tensor)

    try:
        return _dispatch(
            tensor, factors, fmats, mode, fmt, cfg, cache, rank, faults, events
        )
    except PlanBuildError:
        raise
    except Exception as exc:
        # Replan-once self-heal: cached state that passed (or dodged) the
        # integrity probe still blew up in execution — e.g. an out-of-range
        # coordinate from a corrupted plan. Evict everything cached for
        # this tensor and re-dispatch from fresh plans; a second failure is
        # a genuine bug and propagates.
        cache.invalidate(tensor)
        cache.record_repair(
            f"execution over cached {fmt} plans failed "
            f"({type(exc).__name__}); entry evicted and replanned"
        )
        if events is not None:
            events.record(
                PLAN_REPAIRED, "MTTKRP", mode=mode,
                detail=f"{fmt} execution failed ({type(exc).__name__}: {exc}); "
                       f"cache entry evicted, replanned, and re-executed",
                fmt=fmt,
            )
        return _dispatch(
            tensor, factors, fmats, mode, fmt, cfg, cache, rank, faults, events
        )


class EngineMttkrp:
    """Drop-in for the cstf driver's ``_ConcreteMttkrp``, engine-backed.

    Keeps the seed's simulated cost charging (same
    :func:`~repro.machine.analytic.charge_mttkrp` call, same statistics) so
    the simulated timelines of engine and seed runs are bit-identical;
    only the host-side execution differs. ``events``/``injector`` thread
    the run's resilience context into the execution layer so shard
    recoveries and plan repairs land on ``CstfResult.events``.
    """

    def __init__(
        self,
        tensor,
        fmt: str,
        cfg: EngineConfig,
        cache: PlanCache | None = None,
        *,
        events=None,
        injector=None,
    ):
        self.fmt = fmt
        self.cfg = cfg
        self.cache = cache if cache is not None else get_plan_cache()
        self.stats = TensorStats.from_coo(tensor)
        self.ndim = tensor.ndim
        self.tensor = tensor
        self.events = events
        self.injector = injector

    def compute(self, ex, factors, mode: int, rank: int):
        charge_mttkrp(ex, self.stats, rank, mode, self.fmt)
        # The same kernel span and call counter the seed kernels emit, so a
        # trace reads the same whichever path ran.
        tel = current_telemetry()
        with tel.span("mttkrp_kernel", format=self.fmt, mode=mode):
            tel.counter(f"mttkrp.calls.{self.fmt}")
            return engine_mttkrp(
                self.tensor, factors, mode, self.fmt, self.cfg, self.cache,
                faults=self.injector, events=self.events,
            )
