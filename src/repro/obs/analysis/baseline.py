"""Baseline store and tolerance-banded regression detection.

Baselines live in ``benchmarks/baselines/*.json``, one file per benchmark
group, content-keyed by what was measured (figure, device, rank, storage
format) so a key change is a new baseline rather than a silent overwrite.
:func:`compare_metrics` classifies every metric of a fresh run against its
baseline as **improved** / **flat** / **regressed** inside a relative
tolerance band, with the metric's direction (lower-better seconds vs
higher-better speedups) inferred from its name; ``repro diff`` turns the
report into an exit code so CI fails on regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs.schema import check_schema

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_TOLERANCE",
    "baseline_key",
    "metric_direction",
    "MetricDelta",
    "compare_metrics",
    "DiffReport",
    "diff_against_store",
    "BaselineStore",
    "validate_baseline",
]

#: Default relative tolerance band: metrics within ±5 % are "flat".
DEFAULT_TOLERANCE = 0.05

_NUM = {"type": "number"}
_STR = {"type": "string"}

BASELINE_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro perf baseline",
    "type": "object",
    "required": ["type", "schema_version", "key", "meta", "metrics"],
    "properties": {
        "type": {"enum": ["baseline"]},
        "schema_version": {"type": "integer"},
        "key": _STR,
        "meta": {"type": "object"},
        "metrics": {"type": "object"},
        "tolerance": _NUM,
    },
}


def validate_baseline(doc) -> list[str]:
    """Schema-check one baseline document; returns error strings."""
    errors = check_schema(doc, BASELINE_SCHEMA)
    if not errors:
        for name, value in doc["metrics"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"metric {name!r} is not numeric")
    return errors


def baseline_key(figure: str, device: str, rank: int, fmt: str | None = None) -> str:
    """Content key for one benchmark group: what was measured, not when."""
    parts = [str(figure), str(device).lower(), f"r{int(rank)}"]
    if fmt:
        parts.append(str(fmt))
    return "__".join(parts)


# --------------------------------------------------------------------- #
# Direction-aware comparison
# --------------------------------------------------------------------- #
_LOWER_BETTER = ("seconds", "s_per_iter", "bytes", "_s", "time", "traffic")
_HIGHER_BETTER = ("speedup", "fit", "geomean", "flops_per_s", "throughput")


def metric_direction(name: str) -> str:
    """``"lower"``, ``"higher"``, or ``"either"`` (two-sided) for *name*."""
    low = name.lower()
    if any(low.endswith(sfx) or f".{sfx}" in low for sfx in _LOWER_BETTER):
        return "lower"
    if any(sfx in low for sfx in _HIGHER_BETTER):
        return "higher"
    return "either"


@dataclass(frozen=True)
class MetricDelta:
    """One metric's fate against its baseline.

    ``status`` is one of ``improved`` / ``flat`` / ``regressed`` (both
    present), ``missing`` (in the baseline but not the run — schema drift,
    treated as a regression), or ``new`` (in the run only — informational).
    """

    name: str
    baseline: float | None
    current: float | None
    status: str
    ratio: float | None
    tolerance: float

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")


def _classify(name: str, base: float, cur: float, tol: float) -> tuple[str, float]:
    if base == 0.0:
        ratio = float("inf") if cur > 0 else 1.0
        within = abs(cur) <= tol
    else:
        ratio = cur / base
        within = abs(ratio - 1.0) <= tol
    if within:
        return "flat", ratio
    direction = metric_direction(name)
    if direction == "either":
        return "regressed", ratio
    better = (ratio < 1.0) if direction == "lower" else (ratio > 1.0)
    return ("improved" if better else "regressed"), ratio


def compare_metrics(
    current: dict,
    baseline: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    tolerances: dict | None = None,
) -> list[MetricDelta]:
    """Classify every metric of *current* against *baseline*.

    ``tolerances`` maps metric names to per-metric relative bands,
    overriding the default for noisy metrics.
    """
    overrides = tolerances or {}
    deltas: list[MetricDelta] = []
    for name in sorted(set(baseline) | set(current)):
        tol = float(overrides.get(name, tolerance))
        if name not in current:
            deltas.append(MetricDelta(name, float(baseline[name]), None, "missing", None, tol))
            continue
        if name not in baseline:
            deltas.append(MetricDelta(name, None, float(current[name]), "new", None, tol))
            continue
        base, cur = float(baseline[name]), float(current[name])
        status, ratio = _classify(name, base, cur, tol)
        deltas.append(MetricDelta(name, base, cur, status, ratio, tol))
    return deltas


@dataclass
class DiffReport:
    """All deltas of one comparison plus exit-code semantics."""

    deltas: list[MetricDelta]
    missing_groups: list[str]
    new_groups: list[str]

    def by_status(self, status: str) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == status]

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.failed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.deltas:
            out[d.status] = out.get(d.status, 0) + 1
        return out


# --------------------------------------------------------------------- #
class BaselineStore:
    """The ``benchmarks/baselines/`` directory as a keyed document store."""

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def load(self, key: str) -> dict | None:
        """Load and validate one baseline; None when absent."""
        path = self.path_for(key)
        if not path.exists():
            return None
        doc = json.loads(path.read_text(encoding="utf-8"))
        errors = validate_baseline(doc)
        if errors:
            raise ValueError(f"invalid baseline {path}: {'; '.join(errors[:5])}")
        if doc["key"] != key:
            raise ValueError(
                f"baseline {path} is keyed {doc['key']!r}, expected {key!r} "
                f"(file renamed without re-keying?)"
            )
        return doc

    def save(self, doc: dict) -> Path:
        errors = validate_baseline(doc)
        if errors:
            raise ValueError(f"refusing to save invalid baseline: {errors[:5]}")
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(doc["key"])
        path.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path


def diff_against_store(
    groups: list[dict],
    store: BaselineStore,
    *,
    tolerance: float | None = None,
) -> DiffReport:
    """Compare benchmark *groups* (``{"key", "metrics", ...}`` dicts, e.g.
    from a BENCH document) against their stored baselines.

    A group with no stored baseline is reported informationally (a new
    benchmark should not fail CI); a stored baseline with no matching group
    is a missing-group failure (the suite silently stopped measuring it).
    """
    deltas: list[MetricDelta] = []
    new_groups: list[str] = []
    seen: set[str] = set()
    for group in groups:
        key = group["key"]
        seen.add(key)
        doc = store.load(key)
        if doc is None:
            new_groups.append(key)
            continue
        tol = tolerance if tolerance is not None else float(
            doc.get("tolerance", DEFAULT_TOLERANCE)
        )
        for d in compare_metrics(group["metrics"], doc["metrics"], tolerance=tol):
            deltas.append(
                MetricDelta(
                    name=f"{key}.{d.name}",
                    baseline=d.baseline,
                    current=d.current,
                    status=d.status,
                    ratio=d.ratio,
                    tolerance=d.tolerance,
                )
            )
    missing_groups = [key for key in store.keys() if key not in seen]
    for key in missing_groups:
        deltas.append(MetricDelta(key, None, None, "missing", None, 0.0))
    return DiffReport(deltas=deltas, missing_groups=missing_groups, new_groups=new_groups)
