"""Trace analyzer: attribution, hotspots, critical path, traffic claims.

Consumes one telemetry source (a live :class:`~repro.obs.record.RunRecord`
or an emitted JSONL file, via :func:`~repro.obs.analysis.ingest.load_run`)
and answers the questions the paper's evaluation asks of every run:

- **where did the time go** — per-phase attribution of simulated device
  time next to measured host time, and per-kernel attribution with shares
  (:meth:`TraceAnalysis.phase_table`, :meth:`TraceAnalysis.kernel_hotspots`);
- **what chain of work bounded the run** — the host-span critical path
  (:meth:`TraceAnalysis.critical_path`);
- **do the fusion/pre-inversion claims hold** — modeled-bytes accounting of
  the ADMM auxiliary step against the counterfactual kernel plan
  (:func:`fusion_report`, :func:`aux_traffic_ratio`) and the
  triangular-solve census pre-inversion empties (:func:`preinversion_report`),
  both using the word model in :mod:`repro.machine.costmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trace import (
    PHASE_FIT,
    PHASE_GRAM,
    PHASE_MTTKRP,
    PHASE_NORMALIZE,
    PHASE_UPDATE,
)
from repro.machine.costmodel import admm_aux_formation_words, admm_aux_step_words
from repro.machine.counters import WORD_BYTES
from repro.machine.spec import get_device
from repro.obs.analysis.ingest import load_run
from repro.obs.record import RunRecord, Span

__all__ = [
    "KernelStat",
    "PathNode",
    "TraceAnalysis",
    "analyze_trace",
    "FusionReport",
    "fusion_report",
    "aux_traffic_ratio",
    "PreinversionReport",
    "preinversion_report",
]


#: The driver's phase spans (:mod:`repro.core.cstf`) and the phase each
#: times; their host durations make the host column of the phase table.
_PHASE_SPANS = {
    "gram_init": PHASE_GRAM,
    "gram": PHASE_GRAM,
    "mttkrp": PHASE_MTTKRP,
    "update": PHASE_UPDATE,
    "normalize": PHASE_NORMALIZE,
    "fit": PHASE_FIT,
}


# --------------------------------------------------------------------- #
# Kernel-name classifiers for the ADMM auxiliary step
# --------------------------------------------------------------------- #
_AUX_FORMATION_FUSED = frozenset({"fused_auxiliary"})
_AUX_FORMATION_UNFUSED = frozenset({"dgeam_h_plus_u", "dgeam_aux"})
_AUX_STEP_FUSED = frozenset(
    {"fused_auxiliary", "fused_prox_primal", "fused_dual_update"}
)
_AUX_STEP_UNFUSED = frozenset(
    {
        "dcopy_hprev", "dgeam_h_plus_u", "dgeam_aux", "dgeam_prox_arg",
        "dgeam_dh", "dgeam_dual", "dgeam_dprev",
        "norm_primal", "norm_h", "norm_dual", "norm_u",
    }
)
_SOLVE_SERIAL = frozenset({"dtrsm_fwd", "dtrsm_bwd"})
_SOLVE_GEMM = frozenset({"dgemm_apply_inverse"})


def _is_aux_kernel(name: str, fused: bool, formation_only: bool) -> bool:
    if formation_only:
        return name in (_AUX_FORMATION_FUSED if fused else _AUX_FORMATION_UNFUSED)
    if fused:
        return name in _AUX_STEP_FUSED
    # The standalone prox kernel is named after its operator (prox_nonneg,
    # prox_l1, ...).
    return name in _AUX_STEP_UNFUSED or name.startswith("prox_")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelStat:
    """Aggregate of every launch of one kernel name."""

    name: str
    calls: int
    seconds: float
    flops: float
    bytes: float
    launches: int

    @property
    def arithmetic_intensity(self) -> float:
        """Flop/byte of the aggregate (0 when no bytes moved)."""
        return self.flops / self.bytes if self.bytes > 0 else 0.0


@dataclass(frozen=True)
class PathNode:
    """One hop of the host critical path."""

    span: Span
    inclusive: float
    self_seconds: float

    def label(self) -> str:
        attrs = {
            k: v for k, v in self.span.attrs.items()
            if k in ("iteration", "mode", "format") and v is not None
        }
        tag = "".join(f" {k}={v}" for k, v in sorted(attrs.items()))
        return f"{self.span.name}{tag}"


class TraceAnalysis:
    """Per-phase / per-kernel attribution and critical path for one run."""

    def __init__(self, source):
        self.record: RunRecord = load_run(source)

    # -- phase attribution --------------------------------------------- #
    def total_sim_seconds(self) -> float:
        return self.record.sim_total_seconds()

    def phase_table(self) -> list[dict]:
        """One row per phase: simulated seconds, share, flops, bytes, and
        ``host_seconds``, the summed host time of the driver's spans for
        that phase (``gram_init`` counts as GRAM).

        Sorted by simulated seconds descending; shares (of simulated time)
        sum to 1 over phases that charged any time.
        """
        total = self.total_sim_seconds()
        sim = self.record.sim_phase_seconds
        host: dict[str, float] = {}
        for span in self.record.spans:
            phase = _PHASE_SPANS.get(span.name)
            if phase is not None:
                host[phase] = host.get(phase, 0.0) + span.dur
        rows = []
        for phase in {**sim, **host}:
            seconds = sim.get(phase, 0.0)
            rows.append(
                {
                    "phase": phase,
                    "seconds": seconds,
                    "share": seconds / total if total > 0 else 0.0,
                    "flops": self.record.sim_phase_flops.get(phase, 0.0),
                    "bytes": self.record.sim_phase_bytes.get(phase, 0.0),
                    "host_seconds": host.get(phase, 0.0),
                }
            )
        rows.sort(key=lambda r: r["seconds"], reverse=True)
        return rows

    # -- kernel attribution -------------------------------------------- #
    def kernel_stats(self) -> dict[str, KernelStat]:
        """Aggregate the kernel stream by kernel name."""
        acc: dict[str, list] = {}
        for k in self.record.kernels:
            slot = acc.setdefault(k.name, [0, 0.0, 0.0, 0.0, 0])
            slot[0] += 1
            slot[1] += k.dur
            slot[2] += k.flops
            slot[3] += k.bytes
            slot[4] += k.launches
        return {
            name: KernelStat(name, calls, secs, flops, nbytes, launches)
            for name, (calls, secs, flops, nbytes, launches) in acc.items()
        }

    def kernel_hotspots(self, top: int = 10) -> list[KernelStat]:
        """The *top* kernels by aggregate simulated seconds."""
        stats = sorted(
            self.kernel_stats().values(), key=lambda s: s.seconds, reverse=True
        )
        return stats[: max(int(top), 0)]

    def memory_bound(self, stat: KernelStat, device=None) -> bool | None:
        """Roofline side of *stat* on the run's (or given) device.

        A kernel whose arithmetic intensity sits below the device's machine
        balance (peak flops / peak bandwidth) is bandwidth-bound. Returns
        ``None`` when no device can be resolved.
        """
        name = device or self.record.meta.get("device")
        if name is None:
            return None
        try:
            spec = get_device(name)
        except KeyError:
            return None
        balance = spec.peak_flops / spec.mem_bandwidth
        return stat.arithmetic_intensity < balance

    # -- critical path -------------------------------------------------- #
    def _children(self) -> dict[int | None, list[Span]]:
        by_parent: dict[int | None, list[Span]] = {}
        for s in self.record.spans:
            by_parent.setdefault(s.parent, []).append(s)
        return by_parent

    def span_self_seconds(self, span: Span, by_parent=None) -> float:
        """Host seconds in *span* not covered by its children (exclusive)."""
        by_parent = by_parent if by_parent is not None else self._children()
        child_time = sum(c.dur for c in by_parent.get(span.id, []))
        return max(span.dur - child_time, 0.0)

    def critical_path(self) -> list[PathNode]:
        """Root-to-leaf chain following the longest child at every level.

        Starts at the longest root span (the driver's ``run`` span for a
        single factorize) and descends into the child with the largest
        inclusive host duration until reaching a leaf — the chain of spans
        an optimizer should look at first.
        """
        by_parent = self._children()
        roots = by_parent.get(None, [])
        if not roots:
            return []
        path: list[PathNode] = []
        node = max(roots, key=lambda s: s.dur)
        while node is not None:
            path.append(
                PathNode(
                    span=node,
                    inclusive=node.dur,
                    self_seconds=self.span_self_seconds(node, by_parent),
                )
            )
            children = by_parent.get(node.id, [])
            node = max(children, key=lambda s: s.dur) if children else None
        return path

    def hotspot_spans(self, top: int = 10) -> list[tuple[Span, float]]:
        """Spans ranked by exclusive host time (name-level self seconds)."""
        by_parent = self._children()
        ranked = sorted(
            ((s, self.span_self_seconds(s, by_parent)) for s in self.record.spans),
            key=lambda pair: pair[1],
            reverse=True,
        )
        return ranked[: max(int(top), 0)]


def analyze_trace(source) -> TraceAnalysis:
    """Build a :class:`TraceAnalysis` from any telemetry source."""
    return TraceAnalysis(source)


# --------------------------------------------------------------------- #
# Fusion traffic accounting (Section 4.3.1 claim)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FusionReport:
    """Measured vs modeled auxiliary-step traffic for one run.

    ``measured_bytes`` sums the kernel stream's bytes over the auxiliary
    kernels the run actually launched; ``modeled_counterfactual_bytes`` is
    what the *other* kernel plan would have moved for the same element
    count, from the word model in :mod:`repro.machine.costmodel`. For a
    fused run ``ratio = measured / counterfactual`` is the fusion saving
    (~2/3 for formation, ~0.58 for the full step); for an unfused run the
    reciprocal view applies.
    """

    fused: bool
    formation_only: bool
    kernel_calls: int
    measured_bytes: float
    modeled_counterfactual_bytes: float
    element_words: float

    @property
    def ratio(self) -> float:
        """Fused-over-unfused byte ratio regardless of which ran."""
        if self.fused:
            if self.modeled_counterfactual_bytes <= 0:
                return float("nan")
            return self.measured_bytes / self.modeled_counterfactual_bytes
        if self.measured_bytes <= 0:
            return float("nan")
        return self.modeled_counterfactual_bytes / self.measured_bytes


def _aux_bytes(record: RunRecord, fused: bool, formation_only: bool) -> tuple[float, int]:
    total = 0.0
    calls = 0
    for k in record.kernels:
        if _is_aux_kernel(k.name, fused, formation_only):
            total += k.bytes
            calls += 1
    return total, calls


def fusion_report(source, formation_only: bool = False) -> FusionReport:
    """Check the operation-fusion traffic claim against one trace.

    Detects which kernel plan the run used, sums its measured auxiliary
    bytes, infers the per-iteration element count from the formation
    kernels, and models the counterfactual plan's bytes. Raises
    :class:`ValueError` if the trace contains no ADMM auxiliary kernels
    (e.g. an MU/HALS run).
    """
    record = load_run(source)
    fused_bytes, fused_calls = _aux_bytes(record, True, formation_only)
    unfused_bytes, unfused_calls = _aux_bytes(record, False, formation_only)
    if fused_calls == 0 and unfused_calls == 0:
        raise ValueError(
            "trace contains no ADMM auxiliary kernels; fusion accounting "
            "applies to admm/cuadmm runs only"
        )
    fused = fused_bytes >= unfused_bytes
    measured = fused_bytes if fused else unfused_bytes
    calls = fused_calls if fused else unfused_calls

    # Element count per inner iteration from the formation kernels: the
    # fused kernel moves 4n words, the unfused pair 6n (model contract).
    formation_bytes, formation_calls = _aux_bytes(record, fused, True)
    inner_iters = formation_calls if fused else formation_calls / 2.0
    if inner_iters <= 0:
        raise ValueError("trace has no auxiliary-formation kernels to size the model")
    words_per_iter = formation_bytes / WORD_BYTES / inner_iters
    n_elements = words_per_iter / (4.0 if fused else 6.0)

    model = admm_aux_formation_words if formation_only else admm_aux_step_words
    counterfactual = model(n_elements, not fused) * inner_iters * WORD_BYTES
    return FusionReport(
        fused=fused,
        formation_only=formation_only,
        kernel_calls=calls,
        measured_bytes=measured,
        modeled_counterfactual_bytes=counterfactual,
        element_words=n_elements,
    )


def aux_traffic_ratio(fused_source, unfused_source, formation_only: bool = False) -> float:
    """Measured fused-over-unfused auxiliary-step bytes across two traces.

    Both runs must perform the same iteration schedule (same tensor, rank,
    and inner-iteration count) for the ratio to be meaningful. The paper's
    claim: ≈2/3 for the formation step, smaller for the full fused set.
    """
    fused_bytes, fused_calls = _aux_bytes(load_run(fused_source), True, formation_only)
    unfused_bytes, unfused_calls = _aux_bytes(
        load_run(unfused_source), False, formation_only
    )
    if fused_calls == 0:
        raise ValueError("first trace has no fused auxiliary kernels")
    if unfused_calls == 0:
        raise ValueError("second trace has no unfused auxiliary kernels")
    return fused_bytes / unfused_bytes


# --------------------------------------------------------------------- #
# Pre-inversion accounting (Section 4.3.2 claim)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PreinversionReport:
    """Census of the ``(S+ρI)⁻¹`` application kernels in one trace.

    Pre-inversion replaces the two serialized triangular solves of every
    inner iteration with a single GEMM; the only remaining DTRSM pairs are
    the one-off explicit inversions (one per update call). A non-PI run
    instead shows ``2 × inner_iters`` solves per update call.
    """

    triangular_solves: int
    apply_inverse_gemms: int
    triangular_solve_seconds: float
    apply_inverse_seconds: float
    update_calls: int
    preinverted: bool

    @property
    def solves_per_update(self) -> float:
        if self.update_calls <= 0:
            return float("nan")
        return self.triangular_solves / self.update_calls


def preinversion_report(source) -> PreinversionReport:
    """Count solve-application kernels and decide which plan the run used."""
    record = load_run(source)
    trsm = trsm_s = 0.0
    gemm = gemm_s = 0.0
    n_trsm = n_gemm = 0
    for k in record.kernels:
        if k.name in _SOLVE_SERIAL:
            n_trsm += 1
            trsm_s += k.dur
        elif k.name in _SOLVE_GEMM:
            n_gemm += 1
            gemm_s += k.dur
    update_calls = sum(1 for s in record.spans if s.name == "update")
    return PreinversionReport(
        triangular_solves=n_trsm,
        apply_inverse_gemms=n_gemm,
        triangular_solve_seconds=trsm_s,
        apply_inverse_seconds=gemm_s,
        update_calls=update_calls,
        preinverted=n_gemm > 0,
    )
