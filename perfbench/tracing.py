"""In-memory span recorder and the layer wrappers of the traced run.

The traced run times calls into each layer by replacing the layer's public
callables with timing wrappers from this file; nothing inside the program
changes. Spans are kept in memory as ``(name, start, end, parent)`` and
written out when the run ends. A span's self time is its duration minus
the part of its interval that its child spans cover.

Spans are recorded only on the thread and process that installed the
wrappers: forked engine workers inherit the wrappers but their spans would
never reach the parent, and the program already ships its own worker
``shard_kernel`` spans through telemetry.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field

MACHINE_KERNELS = (
    "gemm", "spd_inverse", "cholesky", "trsm", "fused_auxiliary",
    "fused_prox_primal", "fused_dual_update", "gram", "hadamard",
    "normalize_columns", "col_scale",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans around wrapped callables; undoes its patches."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.active = True
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()

    def _mine(self) -> bool:
        return (
            self.active
            and os.getpid() == self._pid
            and threading.get_ident() == self._tid
        )

    def add(self, name: str, start: float, end: float, parent=None, **attrs) -> Span:
        """Record an already-finished span (e.g. an AO iteration)."""
        span = Span(len(self.spans), name, start, end, parent, attrs)
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, attrs=None):
        """*fn* wrapped in a span named *name*; ``attrs(*args, **kwargs)``
        may return a dict stored on the span when the call starts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._mine():
                return fn(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, self.clock(), None, parent)
            if attrs is not None:
                span.attrs.update(attrs(*args, **kwargs))
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()

        return wrapper

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a wrapped version (classmethods too)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, attrs))
        else:
            replacement = self.wrap(name, original, attrs)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "self": selfs[s.id], **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span itself)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = s.dur - _covered([k for k in kids if k[1] > k[0]])
    return out


def adopt_into_iterations(rec: SpanRecorder, call_start: float, stamps) -> list[Span]:
    """Add one ``core.iteration`` span per AO iteration and re-parent the
    top-level spans that started inside it. Iteration 1 starts at the
    ``cstf`` call, so it also holds the set-up work."""
    tops = [s for s in rec.spans if s.parent is None]
    iters = []
    bounds = [call_start, *stamps]
    for k in range(len(stamps)):
        iters.append(rec.add("core.iteration", bounds[k], bounds[k + 1], iteration=k + 1))
    for s in tops:
        for it in iters:
            if it.start <= s.start < it.end:
                s.parent = it.id
                break
    return iters


def install(rec: SpanRecorder) -> None:
    """Wrap every layer's public callables, as the program binds them."""
    from importlib import import_module

    from repro.core.kruskal import KruskalTensor
    from repro.engine.plan import PlanCache
    from repro.machine.executor import Executor
    from repro.obs import current_telemetry
    from repro.tensor.alto import AltoTensor
    from repro.tensor.blco import BlcoTensor
    from repro.tensor.csf import CsfTensor
    from repro.updates.admm import AdmmUpdate

    # import_module, not ``import a.b as m``: ``repro.core.cstf`` is also
    # the name of the function that package re-exports.
    core_cstf = import_module("repro.core.cstf")
    e_driver = import_module("repro.engine.driver")
    e_execute = import_module("repro.engine.execute")
    b_proc = import_module("repro.engine.backends.processes")
    b_serial = import_module("repro.engine.backends.serial")
    b_threads = import_module("repro.engine.backends.threads")

    for fn in ("mttkrp_blco", "mttkrp_coo", "mttkrp_alto", "mttkrp_csf"):
        rec.patch(core_cstf, fn, "kernels.mttkrp")
    rec.patch(e_driver, "engine_mttkrp", "engine.mttkrp")
    for method in ("plan", "format", "block_plans"):
        rec.patch(PlanCache, method, "engine.plan")
    rec.patch(e_execute, "run_stream", "engine.exec")

    def dispatch_attrs(self, streams, fmats, mode, out_rows, rank, cfg, **_kw):
        fmat_bytes = sum(int(f.size) * 8 for f in fmats)
        return {
            "mode": int(mode) if mode is not None else None,
            "anchor": current_telemetry().current_span_id(),
            "bytes": fmat_bytes + len(streams) * int(out_rows) * int(rank) * 8,
        }

    for backend in (b_serial.SerialBackend, b_threads.ThreadsBackend, b_proc.ProcessBackend):
        if "run_shards" in backend.__dict__:
            rec.patch(backend, "run_shards", "engine.dispatch", dispatch_attrs)
    for module in (b_serial, b_threads, b_proc):
        rec.patch(module, "tree_reduce", "engine.reduce")
    for fmt_cls in (BlcoTensor, AltoTensor, CsfTensor):
        rec.patch(fmt_cls, "from_coo", "tensor.convert")
    rec.patch(AdmmUpdate, "update", "updates.update")
    for k in MACHINE_KERNELS:
        rec.patch(Executor, k, f"machine.{k}")
    rec.patch(Executor, "record", "machine.record")
    rec.patch(KruskalTensor, "fit", "core.fit")
    rec.patch(core_cstf, "ensure_finite", "resilience.guard")
