"""One cold factorization in a fresh process, timed and checked.

Run by ``run.py``; writes one JSON result file. ``--mode`` selects:

- ``plain``: telemetry off, no wrappers (the end-to-end measurement);
- ``telemetry``: telemetry on, no wrappers (telemetry's own cost);
- ``traced``: telemetry on plus the layer wrappers of :mod:`tracing`
  (the per-layer measurement); the spans are written next to the result.

``start_s`` is the time from the parent launching this process to the
``cstf`` call: interpreter start, imports and loading the tensor.
The process's peak RSS and its engine workers' are read right after
``cstf`` returns, before the correctness checks allocate anything.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from gen import load_input  # noqa: E402
from workloads import RANK, Workload  # noqa: E402


def _hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process in MiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def factorize(workload: Workload, input_path: str, seed: int, mode: str, launched_at: float,
              trace_path=None) -> dict:
    from repro import CstfConfig, SparseTensor, cstf
    from repro.engine.backends import shutdown_backends
    from repro.engine.plan import get_plan_cache

    indices, values, shape, digest = load_input(input_path)
    tensor = SparseTensor(indices, values, shape)
    rec = None
    if mode == "traced":
        import tracing

        rec = tracing.SpanRecorder()
        tracing.install(rec)
    shm_before = checks.shm_segments()
    clock = time.perf_counter
    stamps: list[float] = []
    config = CstfConfig(
        rank=RANK, max_iters=workload.max_iters, seed=seed,
        telemetry="off" if mode == "plain" else "on",
        on_iteration=lambda _i: stamps.append(clock()),
        **workload.overrides,
    )
    start_s = time.monotonic() - launched_at
    t_call = clock()
    result = cstf(tensor, config)
    if rec is not None:
        rec.active = False
    worker_pids = [p.pid for p in multiprocessing.active_children()]
    worker_mb = [_hwm_mb(pid) for pid in worker_pids]
    peak_rss_mb = _hwm_mb() + sum(worker_mb)

    durations = [b - a for a, b in zip([t_call, *stamps], stamps)]
    out = {
        "mode": mode,
        "checksum": digest,
        "start_s": start_s,
        "first_iter_s": durations[0],
        "iter_durations": durations[1:],
        "peak_rss_mb": peak_rss_mb,
        "fit": result.fit,
        "sim_iter_s": result.per_iteration_seconds(),
    }
    if rec is not None:
        from layers import largest_layer, layer_metrics

        iters = tracing.adopt_into_iterations(rec, t_call, stamps)
        layer = layer_metrics(rec, iters, result, get_plan_cache(),
                              max(worker_mb, default=0.0))
        out["layers"] = layer
        out["largest_layer"] = largest_layer(layer)
        rec.restore()
        with open(trace_path, "w") as fh:
            json.dump(rec.to_json(), fh)

    factors = list(result.kruskal.factors)
    weights = result.kruskal.weights
    failures = {
        "factors": checks.factors_ok(factors, weights),
        "fit": checks.fit_ok(result.fit, tensor.indices, tensor.values, factors, weights),
        "mttkrp": checks.mttkrp_ok(tensor, factors, config.mttkrp_format, config.engine),
    }
    shutdown_backends()
    failures["teardown"] = checks.teardown_ok(shm_before, worker_pids)
    out["failures"] = {k: v for k, v in failures.items() if v is not None}
    out["worker_pids"] = worker_pids
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="Workload as JSON")
    ap.add_argument("--input", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "telemetry", "traced"), default="plain")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--launched-at", type=float, required=True,
                    help="time.monotonic() when the parent launched this process")
    args = ap.parse_args(argv)
    spec = json.loads(args.workload)
    workload = Workload(spec["name"], tuple(spec["dims"]), spec["nnz"],
                        spec["max_iters"], spec["overrides"])
    try:
        out = factorize(workload, args.input, args.seed, args.mode, args.launched_at,
                        args.trace_out)
    except Exception:  # reported to run.py as a failed factorization
        out = {"mode": args.mode, "error": traceback.format_exc()}
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
