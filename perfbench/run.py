"""Host wall-clock benchmark of ``repro.cstf``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload short-modes --seed 1 --seconds 30 --trace 0

The input is generated once per (workload, seed) by ``gen.py`` in its own
process and cached under ``.bench_build/perfbench/``, so generation affects
neither the timings nor the memory figures. Every factorization then runs
cold in a fresh process (``factorize.py``) and its outputs are checked.

``--trace 0`` repeats plain factorizations for about ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` repeats rounds of one plain,
one telemetry-on and one traced factorization and reports the per-layer
metrics. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Workload  # noqa: E402

MIN_FACTORIZATIONS = 3
"""Plain factorizations per end-to-end run even when ``--seconds`` is
short: ``setup_s`` comes from the median over these cold starts."""

CHILD_TIMEOUT_S = 150


def _root() -> str:
    return os.path.dirname(HERE)


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(_root(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _out_dir() -> str:
    path = os.path.join(_root(), ".bench_build", "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def ensure_input(workload: Workload, seed: int) -> str:
    """Generate the workload's input for *seed* unless it is cached."""
    path = os.path.join(_out_dir(), f"input-{workload.name}-{workload.nnz}-s{seed}.npz")
    if not os.path.exists(path):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--dims",
             ",".join(map(str, workload.dims)), "--nnz", str(workload.nnz),
             "--seed", str(seed), "--out", path],
            env=_env(), capture_output=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
    return path


def run_factorization(workload: Workload, input_path: str, seed: int, mode: str, tag: str) -> dict:
    out = os.path.join(_out_dir(), f"result-{tag}.json")
    trace = os.path.join(_out_dir(), f"trace-{workload.name}-s{seed}.json")
    cmd = [sys.executable, os.path.join(HERE, "factorize.py"),
           "--workload", json.dumps(dataclasses.asdict(workload)),
           "--input", input_path, "--seed", str(seed), "--mode", mode,
           "--out", out, "--trace-out", trace]
    if os.path.exists(out):
        os.remove(out)
    cmd += ["--launched-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.exists(out):
        return {"mode": mode, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(out) as fh:
        res = json.load(fh)
    if mode == "traced":
        res["trace_path"] = os.path.relpath(trace, _root())
    # Orphan check from outside: a worker that outlived its parent is
    # re-parented and would still be running now.
    orphans = [pid for pid in res.get("worker_pids", []) if os.path.exists(f"/proc/{pid}")]
    if orphans:
        res.setdefault("failures", {})["orphans"] = f"workers outlived the run: {orphans}"
    return res


def _failed(res: dict) -> bool:
    return "error" in res or bool(res.get("failures"))


def _consistency(results: list[dict]) -> str | None:
    """The simulated per-iteration time must repeat exactly."""
    sims = {r["sim_iter_s"] for r in results if "sim_iter_s" in r}
    if len(sims) > 1:
        return f"machine.sim_iter_s differs across factorizations: {sorted(sims)}"
    return None


def end_to_end(results: list[dict]) -> tuple[dict, int]:
    """``({name: (value, unit)}, steady iteration samples)`` over the
    factorizations that passed their checks."""
    ok = [r for r in results if not _failed(r)]
    if not ok:
        return {}, 0
    steady = [d for r in ok for d in r["iter_durations"]]
    iter_s = statistics.median(steady)
    return {
        "iter_s": (iter_s, "s"),
        # Launch of each cold process to the end of its iteration 1, minus
        # the run's steady iter_s.
        "setup_s": (statistics.median(r["start_s"] + r["first_iter_s"] for r in ok) - iter_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MiB"),
        "residual_final": (statistics.median(1.0 - r["fit"] for r in ok), "1"),
    }, len(steady)


def run(workload: Workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    input_path = ensure_input(workload, seed)
    modes = ("plain", "telemetry", "traced") if trace else ("plain",)
    start = time.perf_counter()
    results = []
    # Start another round only if it is expected to end within --seconds;
    # the end-to-end run always makes MIN_FACTORIZATIONS cold starts.
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            results.append(run_factorization(workload, input_path, seed, mode,
                                             f"{workload.name}-s{seed}-{len(results)}"))
        now = time.perf_counter()
        if (trace or len(results) >= MIN_FACTORIZATIONS) and \
                now - start + (now - round_start) > seconds:
            break
    digests = sorted({r["checksum"] for r in results if "checksum" in r})
    log(f"input {workload.name} dims={workload.dims} nnz={workload.nnz} seed={seed} "
        f"sha256[:16]={', '.join(digests)}")
    for r in results:
        if _failed(r):
            log(f"FAILED {r['mode']} factorization: {r.get('error') or r['failures']}")
    consistency = _consistency(results)
    if consistency:
        log(f"FAILED consistency: {consistency}")
    # Factorizations whose simulated timelines disagree all count as failed.
    failed = len(results) if consistency else sum(map(_failed, results))
    if trace:
        metrics = per_layer(results, log) if failed == 0 else {}
    else:
        e2e, samples = end_to_end(results)
        log(f"{workload.name}: {samples} steady iterations over {len(results)} cold "
            f"factorizations; failed_frac={failed / len(results):g}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }


def per_layer(results: list[dict], log=print) -> dict:
    """Median of each layer metric over the traced factorizations, plus
    the tracing and telemetry overheads from the pooled steady iterations."""
    traced = [r for r in results if r["mode"] == "traced"]
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}

    def iter_s(mode):
        return statistics.median(d for r in results if r["mode"] == mode for d in r["iter_durations"])

    base = iter_s("plain")
    plain = [r for r in results if r["mode"] == "plain"]
    layers["process.start_s"] = statistics.median(r["start_s"] for r in plain)
    layers["core.setup_s"] = statistics.median(r["first_iter_s"] for r in plain) - base
    layers["obs.telemetry_overhead_frac"] = iter_s("telemetry") / base - 1.0
    layers["trace.overhead_frac"] = iter_s("traced") / base - 1.0
    largest = sorted({r["largest_layer"] for r in traced})
    log(f"largest layer: {', '.join(largest)}; spans in {traced[-1]['trace_path']}")
    for layer in ("mttkrp", "update", "fit"):
        log(f"cross-check {layer}: wrappers differ from the program's own spans by "
            f"{100 * layers[f'xcheck.{layer}.rel_diff']:.2f}%")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("engine.plan.builds", "resilience.events",
                                           "engine.transport.downgrades"):
        return "count"
    if name.endswith("_gflops"):
        return "GFLOP/s_computed"
    if name == "engine.transport.bytes":
        return "B_computed"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "1"


def report(result: dict) -> None:
    """Print each metric with its unit, then the JSON result line."""
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(_root(), "src", "repro")):
        print("perfbench: src/repro not found next to perfbench/; run from a checkout",
              file=sys.stderr)
        return 2
    report(run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
