"""Per-layer metrics of one traced factorization.

Inputs are the benchmark's own wrapper spans (see :mod:`tracing`), the
program's telemetry record (spans, worker ``shard_kernel`` spans and
counters it already produces) and the simulated-machine timeline. Values
are per steady AO iteration (iteration 2 onwards) unless the name says
otherwise; see ``perfbench/README.md`` for the table.
"""

from __future__ import annotations

import statistics

from tracing import MACHINE_KERNELS, self_times


def _ancestors(span, by_id):
    """The span's ancestors, innermost first."""
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
        yield span


def _iteration(span, by_id, root_name) -> int:
    """AO iteration of *span*: the ``iteration`` attr of its nearest
    *root_name* span (itself included); 0 outside any iteration."""
    for s in (span, *_ancestors(span, by_id)):
        if s.name == root_name:
            return s.attrs["iteration"]
    return 0


def layer_metrics(rec, iters, result, plan_cache, worker_peak_mb: float) -> dict:
    """Every per-layer metric of a traced factorization, as ``{name: value}``."""
    from repro.core.trace import PHASE_MTTKRP, PHASE_UPDATE

    spans = [s for s in rec.spans if s.end is not None]
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    steady_iters = [it for it in iters if it.attrs["iteration"] >= 2]
    n = max(len(steady_iters), 1)
    iteration = {s.id: _iteration(s, by_id, "core.iteration") for s in spans}

    def outermost(s):
        return all(a.name != s.name for a in _ancestors(s, by_id))

    def pick(name, steady=True):
        return [s for s in spans if s.name == name and (not steady or iteration[s.id] >= 2)]

    def busy(name, steady=True):
        total = sum(s.dur for s in pick(name, steady) if outermost(s))
        return total / n if steady else total

    def calls(name):
        return len(pick(name)) / n

    m = {}
    m["kernels.mttkrp.busy_s"] = busy("kernels.mttkrp")
    m["kernels.mttkrp.calls"] = calls("kernels.mttkrp")
    m["engine.mttkrp.busy_s"] = busy("engine.mttkrp")
    m["engine.mttkrp.calls"] = calls("engine.mttkrp")
    mttkrp_busy = m["kernels.mttkrp.busy_s"] + m["engine.mttkrp.busy_s"]
    timeline = result.executor.timeline
    iterations = max(result.iterations, 1)
    m["mttkrp.host_gflops"] = _gflops(timeline.phase_flops.get(PHASE_MTTKRP, 0.0) / iterations,
                                      mttkrp_busy)

    m["engine.plan.busy_s"] = busy("engine.plan")
    m["engine.plan.build_s"] = sum(
        s.dur for s in spans if s.name == "engine.plan" and iteration[s.id] == 1 and outermost(s)
    )
    m["engine.plan.builds"] = float(plan_cache.misses)
    lookups = plan_cache.hits + plan_cache.misses
    m["engine.plan.hit_rate"] = plan_cache.hits / lookups if lookups else 0.0
    m["engine.exec.busy_s"] = busy("engine.exec")
    m["engine.dispatch.busy_s"] = busy("engine.dispatch")
    m["engine.reduce.busy_s"] = busy("engine.reduce")

    dispatches = pick("engine.dispatch", steady=False)
    steady_dispatches = pick("engine.dispatch")
    m["engine.transport.bytes"] = (
        statistics.fmean(s.attrs["bytes"] for s in dispatches) if dispatches else 0.0
    )
    m["backend.spawn_s"] = _spawn_s(dispatches)
    m["backend.worker_peak_rss_mb"] = worker_peak_mb

    shard_m = _shard_metrics(result.telemetry, steady_dispatches, n)
    m.update(shard_m)

    m["tensor.convert.busy_s"] = busy("tensor.convert", steady=False)
    m["updates.update.busy_s"] = busy("updates.update")
    m["updates.host_gflops"] = _gflops(timeline.phase_flops.get(PHASE_UPDATE, 0.0) / iterations,
                                       m["updates.update.busy_s"])
    for k in MACHINE_KERNELS:
        m[f"machine.{k}.busy_s"] = busy(f"machine.{k}")
        m[f"machine.{k}.calls"] = calls(f"machine.{k}")
    m["machine.record.busy_s"] = sum(selfs[s.id] for s in pick("machine.record")) / n
    m["machine.record.calls"] = calls("machine.record")
    m["machine.sim_iter_s"] = float(result.per_iteration_seconds())
    m["core.fit.busy_s"] = busy("core.fit")
    m["resilience.guard.busy_s"] = busy("resilience.guard")
    m["resilience.events"] = float(len(result.events))
    m["core.driver.self_s"] = sum(selfs[it.id] for it in steady_iters) / n

    program = _program_phase_seconds(result.telemetry, n)
    for layer, own in (("mttkrp", mttkrp_busy), ("update", m["updates.update.busy_s"]),
                       ("fit", m["core.fit.busy_s"])):
        ref = program.get(layer, 0.0)
        m[f"xcheck.{layer}.rel_diff"] = abs(ref - own) / ref if ref > 0 else 0.0
    return m


def largest_layer(metrics: dict) -> str:
    """The phase layer with the most busy time per steady iteration."""
    phases = {
        "mttkrp": metrics["kernels.mttkrp.busy_s"] + metrics["engine.mttkrp.busy_s"],
        "updates.update": metrics["updates.update.busy_s"],
        "core.fit": metrics["core.fit.busy_s"],
    }
    return max(phases, key=phases.get)


def _gflops(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def _spawn_s(dispatches) -> float:
    """First dispatch minus the median later dispatch of the same mode:
    the cost of starting the worker processes."""
    if not dispatches:
        return 0.0
    first = dispatches[0]
    later = [s.dur for s in dispatches[1:] if s.attrs["mode"] == first.attrs["mode"]]
    return first.dur - statistics.median(later) if later else 0.0


def _program_steady(record, by_id, name):
    return [
        s for s in record.spans
        if s.name == name and _iteration(s, by_id, "outer_iter") >= 2
    ]


def _shard_metrics(record, steady_dispatches, n) -> dict:
    """Worker busy time, dispatch wait and redo share from the program's
    own shard spans (``shard`` in the parent, ``shard_kernel`` shipped
    back from each worker)."""
    out = {"engine.shard.busy_s": 0.0, "engine.dispatch.wait_s": 0.0,
           "engine.shard.redo_frac": 0.0, "engine.transport.downgrades": 0.0}
    if record is None:
        return out
    by_id = {s.id: s for s in record.spans}
    kernels = _program_steady(record, by_id, "shard_kernel")
    out["engine.shard.busy_s"] = sum(s.dur for s in kernels) / n
    shards = [s for s in record.spans if s.name == "shard"]
    if shards:
        out["engine.shard.redo_frac"] = sum(bool(s.attrs.get("redone")) for s in shards) / len(shards)
    by_anchor: dict = {}
    for k in kernels:
        shard = by_id.get(k.parent)
        if shard is not None:
            by_anchor.setdefault(shard.parent, []).append(k.dur)
    wait = 0.0
    for d in steady_dispatches:
        slowest = max(by_anchor.get(d.attrs["anchor"], [0.0]))
        wait += d.dur - slowest
    out["engine.dispatch.wait_s"] = wait / n
    counters = record.metrics_summary.get("counters", {})
    out["engine.transport.downgrades"] = float(counters.get("engine.shm.downgrades", 0.0))
    return out


def _program_phase_seconds(record, n) -> dict:
    """The program's own ``mttkrp``/``update``/``fit`` span time per steady
    iteration, for the cross-check against the wrappers."""
    if record is None:
        return {}
    by_id = {s.id: s for s in record.spans}
    return {
        name: sum(s.dur for s in _program_steady(record, by_id, name)) / n
        for name in ("mttkrp", "update", "fit")
    }
