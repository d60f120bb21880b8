#!/usr/bin/env python
"""Run the fault-injection test suite under pinned, deterministic seeds.

The ``faults``-marked tests corrupt intermediates at every cSTF phase and
assert that each recovery path in :mod:`repro.resilience` actually fires;
the ``chaos``-marked tests inject *execution* faults (worker crashes,
stragglers, corrupted cached plans) and assert the engine and supervisor
recover bit-identically.
All randomness is seeded, so the suite is bitwise repeatable; this runner
pins the remaining environmental sources (hash seed, test order) so a CI
failure reproduces locally from the same command:

    python scripts/run_fault_suite.py            (exit code 0 iff all pass)

``--backend processes`` adds the process-isolation stage: the
``procfaults``-marked tests (real worker SIGKILLs; excluded from tier-1)
plus a supervised chaos run on the ``processes`` execution backend that
SIGKILLs a worker mid-MTTKRP *and* corrupts an on-disk plan-store entry,
asserting bit-identical convergence with ``worker_lost`` and
``plan_repaired`` events, a schema-valid trace, and an
``engine.blas.pinned`` gauge in the first telemetry batch of every worker
process, respawned ones included. The chaos run executes
**twice** — once on this host (zero-copy shared-memory transport where
POSIX shared memory works) and once on a simulated host without shared
memory (pipe transport) — and each trace is checked with
``--require-worker-spans`` (trace completeness: every executed shard must
carry at least one worker-attributed kernel span, even across kills and
respawns) and ``--require-transport-attr`` (transport provenance: every
shard span proves which transport actually ran).

``--backend processes`` also runs the **resource-pressure stage**: the
``pressure``-marked tests (real worker processes under memory budgets;
excluded from tier-1) plus a supervised chaos run that injects
``oom_worker`` (real SIGKILL dressed as the kernel OOM killer),
``disk_full`` (synthetic ENOSPC on plan-store/checkpoint/sink writes) and
``shm_exhausted`` (refused /dev/shm leases) under a deliberately tiny
memory budget, asserting bit-identical convergence, pressure-degradation
events, a clean run with zero pressure events, and no leaked /dev/shm
segments; each trace is checked with ``--require-pressure-events``. The
stage runs twice, on this host and on a host without shared memory.
``--stage resource`` runs only that stage.

Extra arguments are forwarded to pytest, e.g.::

    python scripts/run_fault_suite.py -k checkpoint -x
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Prepended to a process-backend snippet to run it on a simulated host
# without POSIX shared memory, where shards travel over the task pipes.
_NO_SHM_HOST = """
import repro.engine.backends.shm as _shm_mod
_shm_mod.shm_available = lambda: False
"""


def _on_host(snippet: str, has_shm: bool) -> str:
    return snippet if has_shm else _NO_SHM_HOST + snippet

# Inline fault run with JSONL telemetry: injects faults at a high rate so
# recovery events land in the stream, which check_trace.py then validates
# against the published schema (resilience events must round-trip).
_FAULT_TRACE_SNIPPET = """
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.obs import Telemetry
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.tensor.coo import SparseTensor

rng = np.random.default_rng(0)
idx = rng.integers(0, [14, 12, 10], size=(300, 3))
vals = rng.random(300)
X = SparseTensor(idx, vals, (14, 12, 10))
injector = FaultInjector(
    [FaultSpec(phase="UPDATE", kind="nan", probability=0.5),
     FaultSpec(phase="MTTKRP", kind="perturb", probability=0.5)],
    seed=7,
)
cstf(X, CstfConfig(
    rank=4, max_iters=4, update="admm", device="cpu", mttkrp_format="coo",
    seed=3, fault_injector=injector,
    telemetry=Telemetry(jsonl_path=SYS_ARGV_PATH),
))
"""


# Engine equivalence gate: the PR 4 execution engine must reproduce the
# seed kernels bit for bit (serial and sharded) and hit its plan cache on
# every lookup after the first AO iteration.
_ENGINE_EQUIV_SNIPPET = """
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.tensor.coo import SparseTensor

rng = np.random.default_rng(0)
idx = rng.integers(0, [60, 45, 30], size=(5000, 3))
vals = rng.random(5000)
X = SparseTensor(idx, vals, (60, 45, 30))

def run(engine, telemetry="off"):
    return cstf(X, CstfConfig(
        rank=8, max_iters=11, update="cuadmm", device="a100",
        mttkrp_format="coo", compute_fit=False, seed=1,
        telemetry=telemetry, engine=engine,
    ))

seed_res = run(None)
on_res = run("on", telemetry="on")
sh_res = run({"shards": 3})

for res, label in ((on_res, "engine-serial"), (sh_res, "engine-sharded")):
    assert np.array_equal(res.kruskal.weights, seed_res.kruskal.weights), (
        label + " weights differ"
    )
    for mode, (fa, fb) in enumerate(zip(res.kruskal.factors, seed_res.kruskal.factors)):
        assert np.array_equal(fa, fb), label + f" factor {mode} differs"

counters = on_res.telemetry.metrics_summary.get("counters", {})
hits = counters.get("engine.plan.hits", 0)
misses = counters.get("engine.plan.misses", 0)
rate = hits / max(1, hits + misses)
assert rate >= 0.9, f"plan-cache hit rate {rate:.3f} < 0.9"
print(f"engine equivalence OK: serial+sharded bitwise, hit rate {rate:.3f}")
"""


# Chaos gate: a *supervised* run with execution faults injected (worker
# crashes, stragglers, plan corruption) must complete bit-identical to a
# fault-free run, and its telemetry stream must stay schema-valid; a
# supervised run with no faults must add zero retries/degradations.
_CHAOS_SNIPPET = """
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.obs import Telemetry
from repro.resilience import FaultInjector, FaultSpec, supervised_cstf

from repro.tensor.coo import SparseTensor

rng = np.random.default_rng(0)
idx = rng.integers(0, [40, 30, 20], size=(2500, 3))
vals = rng.random(2500)
X = SparseTensor(idx, vals, (40, 30, 20))
base = dict(rank=5, max_iters=4, update="admm", device="cpu",
            mttkrp_format="coo", seed=11)

plain = cstf(X, CstfConfig(**base))

# 1. Supervised, no faults: pure pass-through.
sup = supervised_cstf(X, CstfConfig(**base))
for a, b in zip(plain.kruskal.factors, sup.kruskal.factors):
    assert np.array_equal(a, b), "supervised no-fault run is not bit-identical"
assert not [e for e in sup.events if e.phase == "SUPERVISE"], (
    "no-fault supervised run produced supervisor events"
)

# 2. Supervised chaos: every execution fault kind, sharded engine, traced.
injector = FaultInjector(
    [FaultSpec(phase="EXECUTE", kind="worker_crash", probability=0.5),
     FaultSpec(phase="EXECUTE", kind="slow_shard", probability=0.5, magnitude=0.2),
     FaultSpec(phase="EXECUTE", kind="corrupt_plan", probability=0.3)],
    seed=23,
)
chaos = supervised_cstf(X, CstfConfig(
    **base, engine={"shards": 3, "shard_timeout": 0.05},
    fault_injector=injector,
    telemetry=Telemetry(jsonl_path=SYS_ARGV_PATH),
))
assert injector.injected > 0, "chaos run injected no execution faults"
for a, b in zip(plain.kruskal.factors, chaos.kruskal.factors):
    assert np.array_equal(a, b), "chaos run is not bit-identical to fault-free"
kinds = {e.kind for e in chaos.events}
recoveries = kinds & {"shard_retry", "shard_timeout", "plan_repaired"}
assert recoveries, f"no recovery events on the chaos run (saw {sorted(kinds)})"
print("chaos OK: faults=%d, recoveries=%s" % (
    injector.injected, ",".join(sorted(recoveries))))
"""


# Process-backend chaos gate: a supervised run on isolated worker
# processes, with a real SIGKILL landing mid-MTTKRP and the on-disk
# plan-store entry corrupted under the run. The watchdog must detect the
# dead worker (worker_lost), the store must quarantine the damaged entry
# (plan_repaired), and the factors must still match the serial-backend run
# bit for bit. Trace stays schema-valid and complete — every shard span
# keeps a worker-attributed kernel span (checked by the caller). Every
# worker process, respawned ones included, pins its BLAS to one thread and
# says so in its first telemetry batch (engine.blas.pinned).
_PROCESS_CHAOS_SNIPPET = """
import os

import numpy as np
import repro.engine.backends.base as _base
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import shutdown_pools
from repro.engine.backends.shm import shm_available
from repro.obs import Telemetry
from repro.resilience import FaultInjector, FaultSpec, supervised_cstf
from repro.tensor.coo import SparseTensor

batches = []
_merge = _base.merge_worker_batch

def _record_batch(tel, batch, **kw):
    batches.append(batch)
    return _merge(tel, batch, **kw)

_base.merge_worker_batch = _record_batch

rng = np.random.default_rng(0)
idx = rng.integers(0, [40, 30, 20], size=(2500, 3))
vals = rng.random(2500)
X = SparseTensor(idx, vals, (40, 30, 20))
base = dict(rank=5, max_iters=3, update="admm", device="cpu",
            mttkrp_format="coo", seed=11)

serial = cstf(X, CstfConfig(
    **base, engine={"shards": 3, "backend": "serial"},
))

injector = FaultInjector(
    [FaultSpec(phase="EXECUTE", kind="kill_worker", probability=0.4),
     FaultSpec(phase="EXECUTE", kind="corrupt_store", probability=0.2)],
    seed=29,
)
chaos = supervised_cstf(X, CstfConfig(
    **base,
    engine={"shards": 3, "backend": "processes", "plan_store": STORE_DIR},
    fault_injector=injector,
    telemetry=Telemetry(jsonl_path=TRACE_PATH),
))
assert injector.injected > 0, "process chaos run injected no faults"
counters = chaos.telemetry.metrics_summary.get("counters", {})
if shm_available():
    assert counters.get("engine.shm.segments", 0) > 0, (
        "shared memory available but no segment was published"
    )
else:
    assert "engine.shm.segments" not in counters, (
        "shm segments created on a host without shared memory"
    )
for mode, (a, b) in enumerate(zip(serial.kruskal.factors, chaos.kruskal.factors)):
    assert np.array_equal(a, b), (
        f"processes backend factor {mode} differs from serial under chaos"
    )
kinds = {e.kind for e in chaos.events}
assert "worker_lost" in kinds, (
    f"no worker_lost event despite kill_worker faults (saw {sorted(kinds)})"
)
assert "plan_repaired" in kinds, (
    f"no plan_repaired event despite corrupt_store faults (saw {sorted(kinds)})"
)
# First batch of each worker process, in order of arrival; the parent's
# serial redos ship batches under its own pid and are left out.
first = {}
for batch in batches:
    if batch is not None and batch["pid"] != os.getpid():
        first.setdefault(batch["pid"], batch)
pids_by_slot = {}
for pid, batch in first.items():
    pids_by_slot.setdefault(batch["worker"], []).append(pid)
respawned = [pid for pids in pids_by_slot.values() for pid in pids[1:]]
assert respawned, f"no respawned worker shipped a batch: {pids_by_slot}"
unpinned = [pid for pid, batch in first.items()
            if batch["gauges"].get("engine.blas.pinned", 0) < 1]
assert not unpinned, f"worker batches without engine.blas.pinned: {unpinned}"
shutdown_pools()
print("process chaos OK (shm=%s): faults=%d, kinds=%s, respawned workers "
      "pinned=%d" % (
    shm_available(), injector.injected,
    ",".join(sorted(kinds & {"worker_lost", "plan_repaired"})),
    len(respawned)))
"""


# Resource-pressure chaos gate: a supervised processes-backend run with a
# deliberately tiny memory budget and every resource fault kind injected —
# workers OOM-SIGKILLed mid-shard, plan-store/checkpoint writes hitting
# synthetic ENOSPC, shm leases refused. The run must complete bit-identical
# to an uninjected serial run, its events must prove the degraded paths
# fired (worker_recycled, checkpoint/store skips, transport downgrades on
# the shm transport), a clean run must show zero pressure events, and the
# shared-memory pool must leak nothing into /dev/shm.
_RESOURCE_CHAOS_SNIPPET = """
import glob
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import shutdown_pools
from repro.engine.backends.shm import shm_available
from repro.obs import Telemetry
from repro.resilience import FaultInjector, FaultSpec, supervised_cstf
from repro.resilience.checkpoint import load_checkpoint
from repro.tensor.coo import SparseTensor

shm_before = set(glob.glob("/dev/shm/*"))

rng = np.random.default_rng(0)
idx = rng.integers(0, [40, 30, 20], size=(2500, 3))
vals = rng.random(2500)
X = SparseTensor(idx, vals, (40, 30, 20))
base = dict(rank=5, max_iters=3, update="admm", device="cpu",
            mttkrp_format="coo", seed=11)

serial = cstf(X, CstfConfig(
    **base, engine={"shards": 3, "backend": "serial"},
))

# An 8 MB budget: far above the dispatch's segment needs (the shm path
# stays viable), far below any real worker's RSS (every collected shard
# recycles its worker).
injector = FaultInjector(
    [FaultSpec(phase="EXECUTE", kind="oom_worker", probability=0.4),
     FaultSpec(phase="EXECUTE", kind="disk_full", probability=0.5),
     FaultSpec(phase="EXECUTE", kind="shm_exhausted", probability=0.5)],
    seed=31,
)
chaos = supervised_cstf(X, CstfConfig(
    **base,
    engine={"shards": 3, "backend": "processes",
            "memory_budget_bytes": 8_000_000, "plan_store": STORE_DIR},
    checkpoint_every=1, checkpoint_path=CK_PATH,
    fault_injector=injector,
    telemetry=Telemetry(jsonl_path=TRACE_PATH),
))
assert injector.injected > 0, "resource chaos run injected no faults"
for mode, (a, b) in enumerate(zip(serial.kruskal.factors, chaos.kruskal.factors)):
    assert np.array_equal(a, b), (
        f"factor {mode} differs from serial under resource pressure"
    )
assert np.array_equal(serial.kruskal.weights, chaos.kruskal.weights), (
    "weights differ from serial under resource pressure"
)
kinds = {e.kind for e in chaos.events}
assert "worker_recycled" in kinds, (
    f"no worker_recycled event despite a 8 MB budget (saw {sorted(kinds)})"
)
assert kinds & {"checkpoint_skipped", "store_skipped"}, (
    f"no persistence skips despite disk_full faults (saw {sorted(kinds)})"
)
if shm_available():
    assert "transport_downgraded" in kinds, (
        f"no transport_downgraded despite shm_exhausted faults "
        f"(saw {sorted(kinds)})"
    )
ck = load_checkpoint(CK_PATH)
assert ck.iteration >= 1, "no checkpoint generation survived the skips"

# A clean supervised run (no faults, no budget) must pay nothing.
clean = supervised_cstf(X, CstfConfig(
    **base, engine={"shards": 3, "backend": "processes"},
))
for a, b in zip(serial.kruskal.factors, clean.kruskal.factors):
    assert np.array_equal(a, b), "clean processes run is not bit-identical"
clean_kinds = {e.kind for e in clean.events}
pressure = {"worker_recycled", "transport_downgraded",
            "checkpoint_skipped", "store_skipped"}
assert not (clean_kinds & pressure), (
    f"clean run shows pressure events: {sorted(clean_kinds & pressure)}"
)

shutdown_pools()
leaked = set(glob.glob("/dev/shm/*")) - shm_before
assert not leaked, f"/dev/shm leaked segments: {sorted(leaked)}"
print("resource chaos OK (shm=%s): faults=%d, kinds=%s" % (
    shm_available(), injector.injected, ",".join(sorted(kinds & pressure))))
"""


def _check_resource_chaos(env, has_shm: bool) -> int:
    """Resource-pressure chaos: OOM + ENOSPC + shm exhaustion, degraded
    but bit-identical; the trace must prove the pressure paths fired."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "resource_chaos.jsonl"
        store = Path(tmp) / "plan_store"
        ck = Path(tmp) / "resource_chaos.npz"
        snippet = _on_host(
            _RESOURCE_CHAOS_SNIPPET
            .replace("TRACE_PATH", repr(str(trace)))
            .replace("STORE_DIR", repr(str(store)))
            .replace("CK_PATH", repr(str(ck))),
            has_shm,
        )
        code = subprocess.call(
            [sys.executable, "-c", snippet], cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print(f"resource chaos run failed (has_shm={has_shm})")
            return code
        # No worker-span/transport gates here: a run whose sink degrades
        # under an injected sink fault legitimately truncates its stream.
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", "--require-pressure-events", str(trace)],
            cwd=REPO_ROOT, env=env,
        )


def _check_process_chaos(env, has_shm: bool) -> int:
    """Process-backend chaos: SIGKILL + store corruption, bit-identical.

    Runs on this host or, with *has_shm* false, on one without shared
    memory; the caller invokes it for both so recovery is proven with and
    without the zero-copy path.
    """
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "process_chaos.jsonl"
        store = Path(tmp) / "plan_store"
        snippet = _on_host(
            _PROCESS_CHAOS_SNIPPET
            .replace("TRACE_PATH", repr(str(trace)))
            .replace("STORE_DIR", repr(str(store))),
            has_shm,
        )
        code = subprocess.call(
            [sys.executable, "-c", snippet], cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print(f"process chaos run failed (has_shm={has_shm})")
            return code
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", "--require-worker-spans", "--require-transport-attr",
             str(trace)],
            cwd=REPO_ROOT, env=env,
        )


_PROCESS_GATE = "process-backend chaos gate (real SIGKILL + store corruption)"
_RESOURCE_GATE = "resource-pressure chaos gate (OOM + ENOSPC + shm exhaustion)"


def _check_on_both_hosts(check, label: str, env) -> int:
    """One pass on this host's default transport, one on a host without
    shared memory (pipe transport)."""
    for host, has_shm in (("this host", True), ("a host without shm", False)):
        print(f"\nrunning the {label}, traced, on {host}")
        code = check(env, has_shm)
        if code != 0:
            return code
    return 0


def _check_chaos(env) -> int:
    """Supervised chaos run: bit-identical recovery + schema-valid trace."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "chaos_run.jsonl"
        code = subprocess.call(
            [sys.executable, "-c",
             _CHAOS_SNIPPET.replace("SYS_ARGV_PATH", repr(str(trace)))],
            cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print("chaos run failed")
            return code
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", str(trace)],
            cwd=REPO_ROOT, env=env,
        )


def _check_engine_equivalence(env) -> int:
    """Seed vs engine-serial vs engine-sharded must be bit-identical."""
    return subprocess.call(
        [sys.executable, "-c", _ENGINE_EQUIV_SNIPPET], cwd=REPO_ROOT, env=env,
    )


def _check_fault_trace(env) -> int:
    """Run a faulty factorization with telemetry and validate the stream."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "fault_run.jsonl"
        code = subprocess.call(
            [sys.executable, "-c",
             _FAULT_TRACE_SNIPPET.replace("SYS_ARGV_PATH", repr(str(trace)))],
            cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print("fault-trace generation failed")
            return code
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", str(trace)],
            cwd=REPO_ROOT, env=env,
        )


def _check_perf_baselines(env) -> int:
    """Run the bench suite and gate it against the committed baselines.

    The simulated groups are seeded, so any drift caught by ``repro diff``
    is a genuine behavior change, not noise; the measured ``fig4wall``
    group carries its own wide tolerance and is additionally gated here on
    the PR 4 acceptance floor: engine wall-clock speedup geomean >= 2x.
    """
    import json

    with tempfile.TemporaryDirectory() as tmp:
        bench = Path(tmp) / "BENCH_ci.json"
        code = subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "run_bench_suite.py"),
             "--quiet", "--out", str(bench)],
            cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print("bench-suite generation failed")
            return code
        doc = json.loads(bench.read_text(encoding="utf-8"))
        for group in doc["groups"]:
            if group["figure"] != "fig4wall":
                continue
            speedup = group["metrics"]["geomean.engine_speedup"]
            if speedup < 2.0:
                print(f"engine wall-clock speedup gate failed: "
                      f"geomean {speedup:.2f}x < 2.0x")
                return 1
            print(f"engine wall-clock speedup: geomean {speedup:.2f}x (gate: >= 2x)")
        return subprocess.call(
            [sys.executable, "-m", "repro", "diff", str(bench),
             "--baselines", str(REPO_ROOT / "benchmarks" / "baselines")],
            cwd=REPO_ROOT, env=env,
        )


def main(extra_args: list[str]) -> int:
    extra_args = list(extra_args)
    backend = "threads"
    if "--backend" in extra_args:
        at = extra_args.index("--backend")
        try:
            backend = extra_args[at + 1]
        except IndexError:
            print("--backend requires a value (threads or processes)")
            return 2
        del extra_args[at:at + 2]
        if backend not in ("threads", "processes"):
            print(f"unknown --backend {backend!r} (expected threads or processes)")
            return 2
    stage = None
    if "--stage" in extra_args:
        at = extra_args.index("--stage")
        try:
            stage = extra_args[at + 1]
        except IndexError:
            print("--stage requires a value (resource)")
            return 2
        del extra_args[at:at + 2]
        if stage != "resource":
            print(f"unknown --stage {stage!r} (expected resource)")
            return 2

    env = dict(os.environ)
    # Pin every environmental source of nondeterminism: fixed hash seed,
    # and src/ on the path so the checkout (not an installed wheel) is
    # what gets exercised.
    env["PYTHONHASHSEED"] = "0"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    markers = ["faults", "chaos"]
    if backend == "processes":
        markers.extend(["procfaults", "pressure"])
    if stage == "resource":
        markers = ["pressure"]
    for marker in markers:
        cmd = [
            sys.executable, "-m", "pytest",
            "-m", marker,
            "-p", "no:randomly",  # fixed collection order even if the plugin exists
            "-p", "no:cacheprovider",
            "-q",
            *extra_args,
        ]
        print("$", " ".join(cmd))
        code = subprocess.call(cmd, cwd=REPO_ROOT, env=env)
        if code != 0:
            return code
    if stage == "resource":
        return _check_on_both_hosts(_check_resource_chaos, _RESOURCE_GATE, env)
    print("\nrunning the supervised chaos gate (execution faults, traced)")
    code = _check_chaos(env)
    if code != 0:
        return code
    if backend == "processes":
        for check, label in ((_check_process_chaos, _PROCESS_GATE),
                             (_check_resource_chaos, _RESOURCE_GATE)):
            code = _check_on_both_hosts(check, label, env)
            if code != 0:
                return code
    print("\nvalidating fault-run telemetry against the schema")
    code = _check_fault_trace(env)
    if code != 0:
        return code
    print("\nchecking engine (sharded vs serial vs seed) reproduction")
    code = _check_engine_equivalence(env)
    if code != 0:
        return code
    print("\ngating the bench suite against committed baselines")
    return _check_perf_baselines(env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
