"""Process-pool backend: shards in isolated workers, with real crash recovery.

Workers are separate OS processes, so the failure modes are the real
thing: a worker that takes a ``SIGKILL`` (OOM killer, operator, the chaos
harness's ``kill_worker`` fault) or aborts simply *disappears* — no
exception, no return value. The dispatching side runs a watchdog around
every outstanding shard:

- **liveness** — each worker owns a private duplex pipe; while a result is
  pending the parent polls the pipe and the process in short beats. A
  worker that is no longer alive (negative exitcode = died on a signal) is
  declared lost: a ``worker_lost`` event is recorded, the
  ``engine.backend.workers_lost`` counter bumps, the worker is respawned,
  and the lost shard is re-executed serially on the dispatching thread —
  deterministically bit-identical, because each shard's summation order is
  private and its output rows are disjoint.
- **straggler deadline** — a worker that is alive but has not delivered
  within ``EngineConfig.shard_timeout`` of the start of *its own*
  collection (deadlines are anchored per shard as the watchdog reaches
  it, so collecting or redoing earlier shards never erodes a later
  shard's budget) is killed outright (its private accumulator dies with
  it) and handled the same way, as a ``shard_timeout``.
- **broken pipes** — a task pipe that raises ``EOFError``/``OSError``
  while a result is pending can never deliver, even if the worker
  process is technically still alive (wedged); it is treated as a lost
  worker immediately rather than polling forever.
- **in-worker exceptions** — a worker that raises sends back an error
  marker and stays alive; the shard is redone serially (``shard_retry``),
  matching the threads backend.

Workers hold **private accumulators over disjoint output rows** (the
medium-grained factor-block partitioning of Liavas & Sidiropoulos's
distributed ADMM), so the parent-side tree reduce adds exact zeros and
every recovery path is rtol=0 against serial execution.

Task shipping: the parent's in-memory plan cache is invisible to workers,
so a task either carries its shard stream inline (pickled over the pipe)
or — when the plan was persisted to the on-disk
:class:`~repro.engine.plan_store.PlanStore` — just the store key plus the
shard coordinates. Workers memoize store loads (a small LRU, bounded so a
long-lived pool serving many tensors cannot grow without limit) and
re-derive shard streams with the same deterministic LPT assignment as the
parent.

Factor matrices and accumulators travel over one of two transports:

- **pipe** — the baseline: factor matrices pickled into every task,
  each ``(out_rows, rank)`` accumulator pickled back in the reply.
- **shm** (used wherever POSIX shared memory works; pipe otherwise) —
  zero-copy via :mod:`repro.engine.backends.shm`:
  the parent publishes each factor matrix once per dispatch into a pooled
  shared-memory segment and pre-zeroes one shm accumulator per shard that
  the worker fills in place, so tasks carry only segment names/shapes and
  the reply shrinks to a status tuple. Descriptors carry a per-dispatch
  generation tag a worker refuses when stale; fault paths discard the
  abandoned shm accumulator unread and redo the shard serially into a
  fresh private buffer, so every recovery rung stays bit-identical.
  Segments are unlinked on shutdown/atexit, idle segments on every
  respawn.

Pools are lazily sized, persistent across calls, refreshed if the parent
PID changes (fork safety: a forked child never reuses inherited workers,
whose pipes it shares with the real parent), and torn down by
:meth:`shutdown` / the registry ``atexit`` hook.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import OrderedDict

import numpy as np

from repro.engine.backends.base import ExecutionBackend, tree_reduce
from repro.obs import current_telemetry
from repro.obs.worker import merge_worker_batch
from repro.resilience.events import (
    SHARD_RETRY,
    SHARD_TIMEOUT,
    TRANSPORT_DOWNGRADED,
    WORKER_LOST,
    WORKER_RECYCLED,
)

__all__ = ["ProcessBackend"]

#: Watchdog poll beat while a shard result is outstanding, in seconds.
HEARTBEAT = 0.02

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - exotic host
    _PAGE_SIZE = 4096


def _read_rss(pid: int) -> int:
    """Resident set size of *pid* in bytes via procfs (0 where unreadable).

    ``/proc/<pid>/statm`` field 1 is resident pages; a vanished process,
    a non-procfs host, or a malformed read all report 0 — the watchdog
    treats that as "no pressure signal", never as an error.
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0

#: Liveness budget for a shard when ``shard_timeout`` is disabled: the
#: watchdog still detects dead workers on every beat, it just never
#: declares a live worker a straggler.
_NO_DEADLINE = float("inf")

#: Worker-side plan memo capacity (plans loaded from the on-disk store).
#: A long-lived pool serving many tensors re-loads a cold plan from the
#: store rather than pinning every plan it ever saw in worker memory.
_PLAN_MEMO_LIMIT = 8


def _attach_shm_task(shm_desc: dict, attached: list, last_gen: int):
    """Worker-side: map one task's shm descriptors into ndarray views.

    Appends every successful attach to *attached* (the caller detaches in
    its ``finally`` whatever was mapped, even on a half-failed attach) and
    refuses descriptors from a dispatch generation older than the newest
    this worker has served — a respawned parent pool or recycled name must
    never be scribbled on.
    """
    from repro.engine.backends.shm import (
        ShmAttachError,
        attach_segment,
        segment_view,
    )

    gen = int(shm_desc["gen"])
    if gen < last_gen:
        raise ShmAttachError(
            f"stale shm generation {gen} (worker already served {last_gen})"
        )
    fmats = []
    for desc in shm_desc["fmats"]:
        seg = attach_segment(desc["name"])
        attached.append(seg)
        fmats.append(segment_view(seg, desc["shape"]))
    seg = attach_segment(shm_desc["out"]["name"])
    attached.append(seg)
    out = segment_view(seg, shm_desc["out"]["shape"])
    return fmats, out, gen


def _worker_main(conn, worker_id: int) -> None:
    """Worker loop: receive task dicts, answer ``("ok", partial, batch)``.

    Runs until the parent sends ``None`` or closes the pipe. Exceptions
    are answered as ``("error", message, batch)`` and do not kill the
    worker; an injected ``kill`` task dies by real ``SIGKILL`` before any
    reply, which is exactly the silence the parent's watchdog must detect.

    Telemetry: the worker installs its own
    :class:`~repro.obs.worker.WorkerTelemetrySession` as the ambient
    session the moment it starts (the parent's session never crosses the
    fork — see :mod:`repro.obs.spans`), so ``shard_kernel`` spans *and*
    everything deep code bumps — plan-store hit/miss counters, gauges —
    are captured locally. Each reply piggybacks the drained batch when the
    task asked for capture; the ``None`` shutdown sentinel is answered
    with a final ``("flush", batch)`` carrying whatever is still
    unshipped, so end-of-run traces are never truncated.
    """
    from repro.engine.blas import pin_process
    from repro.engine.execute import run_stream
    from repro.obs.worker import WorkerTelemetrySession

    session = WorkerTelemetrySession(worker_id=worker_id)
    session.push()
    # One BLAS thread for the worker's life, whether it was forked inside
    # a pinned run, spawned fresh or respawned after a loss; the gauge
    # ships with the worker's first captured batch.
    session.gauge("engine.blas.pinned", pin_process())
    store = None
    plans: OrderedDict = OrderedDict()
    last_gen = 0
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            session.counter("obs.worker.flushes")
            try:
                conn.send(("flush", session.drain()))
            except (OSError, ValueError):
                pass
            return
        capture = bool(task.get("telemetry"))
        try:
            if task.get("kill"):
                os.kill(os.getpid(), signal.SIGKILL)
            if task.get("delay", 0.0) > 0.0:
                time.sleep(task["delay"])
            if task.get("crash"):
                from repro.resilience.faults import InjectedWorkerCrash

                raise InjectedWorkerCrash(
                    f"injected worker crash on mode-{task['mode']} shard"
                )
            stream = task.get("stream")
            if stream is None:
                key = task["key"]
                plan = plans.get(key)
                if plan is None:
                    if store is None or os.fspath(store.root) != task["store"]:
                        from repro.engine.plan_store import PlanStore

                        store = PlanStore(task["store"])
                        plans.clear()
                    plan = store.load(key)
                    if plan is None:
                        raise RuntimeError(
                            f"plan-store entry {key} is missing or quarantined"
                        )
                    plans[key] = plan
                    while len(plans) > _PLAN_MEMO_LIMIT:
                        plans.popitem(last=False)
                else:
                    plans.move_to_end(key)
                stream = plan.shard_streams(task["n_shards"])[task["shard"]]
            shm_desc = task.get("shm")
            attached: list = []
            try:
                if shm_desc is not None:
                    fmats, out, last_gen = _attach_shm_task(
                        shm_desc, attached, last_gen
                    )
                else:
                    fmats = task["fmats"]
                    out = np.zeros(
                        (task["out_rows"], task["rank"]), dtype=np.float64
                    )
                if capture:
                    with session.span(
                        "shard_kernel", shard=task["shard"], mode=task["mode"],
                        nnz=stream.nnz,
                    ):
                        run_stream(
                            stream, fmats, task["mode"], out, task["chunk"]
                        )
                else:
                    run_stream(stream, fmats, task["mode"], out, task["chunk"])
                # shm: the parent already holds the filled accumulator —
                # the reply carries no payload at all.
                result = None if shm_desc is not None else out
            finally:
                fmats = out = None  # drop buffer views before unmapping
                for seg in attached:
                    try:
                        seg.close()
                    except BufferError:  # pragma: no cover - defensive
                        pass
        except BaseException as exc:  # noqa: BLE001 - reported, not fatal
            try:
                conn.send((
                    "error", f"{type(exc).__name__}: {exc}",
                    session.drain() if capture else None,
                ))
            except (OSError, ValueError):
                return
        else:
            try:
                conn.send(("ok", result, session.drain() if capture else None))
            except (OSError, ValueError):
                return


class _Worker:
    """One pool slot: a process plus its private task/result pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, ctx, index: int):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, index),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    def alive(self) -> bool:
        return self.proc.is_alive()

    def stop(self, grace: float = 0.2) -> dict | None:
        """Shut the worker down; returns its final telemetry flush batch.

        The ``None`` sentinel is answered by a ``("flush", batch)`` reply
        carrying everything the worker had not yet shipped; stale replies
        from abandoned shards are skipped while waiting for it. Returns
        ``None`` when the worker died before flushing.
        """
        batch = None
        try:
            if self.proc.is_alive():
                self.conn.send(None)
                deadline = time.monotonic() + grace
                while time.monotonic() < deadline:
                    if not self.conn.poll(HEARTBEAT):
                        continue
                    reply = self.conn.recv()
                    if reply and reply[0] == "flush":
                        batch = reply[1]
                        break
        except (EOFError, OSError, ValueError):
            pass
        self.proc.join(timeout=grace)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=grace)
        self.conn.close()
        self.proc.close()
        return batch

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.join(timeout=1.0)
        finally:
            self.conn.close()
            try:
                self.proc.close()
            except ValueError:  # pragma: no cover - still-running straggler
                pass


class ProcessBackend(ExecutionBackend):
    name = "processes"

    def __init__(self):
        # fork is preferred where available: worker spawn is ~ms, and the
        # child executes only repro code paths that never touch inherited
        # locks. Falls back to spawn elsewhere (workers import repro fresh).
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: list[_Worker] = []
        self._pid = os.getpid()
        self._shm_pool = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_workers(self, n: int) -> list[_Worker]:
        if self._pid != os.getpid():
            # Forked child: inherited Process handles belong to the real
            # parent. Close the inherited pipe FDs (the other ends are the
            # parent's; keeping ours open would leak an FD per worker and
            # hold the parent's pipes half-open), then drop the handles
            # unjoined and build a private pool. The inherited shm pool's
            # segments also belong to the parent — forget them, never
            # unlink them.
            for worker in self._workers:
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            self._workers = []
            self._shm_pool = None
            self._pid = os.getpid()
        while len(self._workers) < n:
            self._workers.append(_Worker(self._ctx, len(self._workers)))
        for i in range(n):
            if not self._workers[i].alive():
                self._respawn(i)
        return self._workers[:n]

    def _respawn(self, index: int) -> _Worker:
        try:
            self._workers[index].kill()
        except (OSError, ValueError):  # pragma: no cover - already reaped
            pass
        if self._shm_pool is not None:
            # Respawn hygiene: idle segments are unlinked so the fresh
            # worker can never attach a recycled name from a dispatch it
            # did not see. The current dispatch's leases are untouched.
            self._shm_pool.flush_free()
        self._workers[index] = _Worker(self._ctx, index)
        current_telemetry().counter("engine.backend.respawns")
        return self._workers[index]

    def shutdown(self) -> None:
        workers, self._workers = self._workers, []
        tel = current_telemetry()
        for worker in workers:
            try:
                batch = worker.stop()
            except (OSError, ValueError):  # pragma: no cover - defensive
                batch = None
            # Final flush: anything a worker had not shipped yet (metrics
            # between shards, the flush counter itself) merges before the
            # process is reaped, so end-of-run traces are not truncated.
            if batch is not None:
                merge_worker_batch(tel, batch)
        pool, self._shm_pool = self._shm_pool, None
        if pool is not None:
            # Leak hygiene: every segment the transport ever created is
            # unlinked here (shutdown_backends wires this into atexit).
            pool.close()

    # ------------------------------------------------------------------ #
    # Shared-memory transport plumbing
    # ------------------------------------------------------------------ #
    def _segment_pool(self):
        if self._shm_pool is None:
            from repro.engine.backends.shm import SegmentPool

            self._shm_pool = SegmentPool()
        return self._shm_pool

    # ------------------------------------------------------------------ #
    def run_shards(
        self, streams, fmats, mode, out_rows, rank, cfg, *,
        faults=None, events=None, plan_ref=None,
    ) -> np.ndarray:
        self._announce(streams)

        injected: dict[str, int] = {}
        delay = 0.0
        if faults is not None:
            injected = faults.draw_shard_faults(
                len(streams), mode=mode, events=events
            )
            if "slow_shard" in injected:
                delay = faults.slow_shard_delay()

        store_root, store_key = plan_ref if plan_ref is not None else (None, None)
        workers = self._ensure_workers(len(streams))
        fmats = [np.ascontiguousarray(f, dtype=np.float64) for f in fmats]

        tel = current_telemetry()
        from repro.engine.backends.shm import shm_available

        use_shm = shm_available()
        budget = int(getattr(cfg, "memory_budget_bytes", 0) or 0)
        if budget > 0 and tel.enabled:
            tel.gauge("engine.proc.memory_budget", float(budget))
        anchor = tel.current_span_id()
        t_dispatch = tel.now()
        pending: list[bool] = [False] * len(streams)
        partials: list[np.ndarray | None] = [None] * len(streams)
        out_views: list[np.ndarray | None] = [None] * len(streams)
        out_leases: list = [None] * len(streams)
        fmat_leases: list = []
        pool = None
        shm_base = None
        if use_shm:
            from repro.engine.backends.shm import ShmExhausted

            pool = self._segment_pool()
            pool.budget_bytes = budget
            # getattr: chaos-suite test doubles implement only the draw
            # hooks they exercise.
            draw_shm = getattr(faults, "draw_shm_fault", None)
            if draw_shm is not None and draw_shm(mode=mode, events=events):
                pool.fail_next_lease = True
            try:
                # One write, N readers: each factor matrix is published
                # once per dispatch; every task carries only names and
                # shapes. Every segment of the dispatch — factors and the
                # per-shard accumulators — is leased up front, so a lease
                # failure downgrades the whole dispatch before any task
                # ships with a half-published descriptor set.
                fmat_descs = []
                for f in fmats:
                    lease = pool.lease(f.nbytes)
                    fmat_leases.append(lease)
                    lease.view(f.shape)[...] = f
                    fmat_descs.append({"name": lease.name, "shape": f.shape})
                for i in range(len(streams)):
                    lease = pool.lease(out_rows * rank * 8)
                    out_leases[i] = lease
                    out_views[i] = lease.view((out_rows, rank))
                    # run_stream assigns segment sums into disjoint rows;
                    # rows no nonzero touches must be exact zeros, and a
                    # reused segment still holds the previous dispatch.
                    out_views[i][...] = 0.0
                shm_base = {"gen": pool.next_generation(), "fmats": fmat_descs}
            except ShmExhausted as exc:
                # /dev/shm pressure (budget, kernel, or injected fault):
                # this dispatch falls back to pickling over the pipes —
                # bit-identical, only the transport differs.
                for lease in fmat_leases:
                    pool.release(lease)
                for i, lease in enumerate(out_leases):
                    out_views[i] = None
                    if lease is not None:
                        pool.release(lease)
                fmat_leases = []
                out_leases = [None] * len(streams)
                use_shm = False
                shm_base = None
                tel.counter("engine.shm.downgrades")
                if events is not None:
                    events.record(
                        TRANSPORT_DOWNGRADED, "MTTKRP", mode=mode,
                        detail=f"shm lease failed ({exc}); dispatch fell "
                               f"back to the pipe transport",
                        error=str(exc),
                    )
        try:
            for i, stream in enumerate(streams):
                task = {
                    "mode": mode, "out_rows": out_rows, "rank": rank,
                    "chunk": cfg.chunk, "shard": i,
                    "n_shards": cfg.shards,
                    "telemetry": tel.enabled,
                    "kill": injected.get("kill_worker") == i
                    or injected.get("oom_worker") == i,
                    "crash": injected.get("worker_crash") == i,
                    "delay": delay if injected.get("slow_shard") == i else 0.0,
                }
                if use_shm:
                    lease = out_leases[i]
                    task["shm"] = dict(
                        shm_base,
                        out={"name": lease.name, "shape": (out_rows, rank)},
                    )
                else:
                    task["fmats"] = fmats
                if store_root is not None and store_key is not None:
                    task["stream"] = None
                    task["store"] = os.fspath(store_root)
                    task["key"] = store_key
                else:
                    task["stream"] = stream
                pending[i] = self._send(workers, i, task)

            dispatch_peak = 0
            for i, stream in enumerate(streams):
                if not pending[i]:
                    # The task could not even be delivered (worker lost
                    # between launches); it was already counted — execute
                    # inline.
                    partials[i], batch = self._redo_captured(
                        stream, fmats, mode, out_rows, rank, cfg.chunk, i,
                        enabled=tel.enabled,
                    )
                    batches, redone, peak_rss = [batch], True, 0
                else:
                    partials[i], batches, redone, peak_rss = self._collect(
                        workers, i, stream, fmats, mode, out_rows, rank, cfg,
                        events, out_view=out_views[i],
                        oom=injected.get("oom_worker") == i,
                    )
                if redone and use_shm and out_leases[i] is not None:
                    # Fault hygiene: the abandoned shm accumulator (which a
                    # killed worker may have been mid-write into) is never
                    # read and never recycled. Drop the parent-side view
                    # first so the segment unmaps cleanly.
                    out_views[i] = None
                    pool.discard(out_leases[i])
                    out_leases[i] = None
                self._finish_shard(
                    tel, anchor, t_dispatch, i, stream.nnz, batches,
                    redone=redone, captured=tel.enabled,
                    transport="inline" if redone
                    else ("shm" if use_shm else "pipe"),
                )
                dispatch_peak = max(dispatch_peak, peak_rss)
                if (
                    budget > 0 and not redone and peak_rss > budget
                    and workers[i].alive()
                ):
                    # Memory pressure: this worker's peak RSS breached the
                    # budget. Its shard result is already collected, so a
                    # graceful replacement at the shard boundary cannot
                    # affect bit-identity — it just returns the memory.
                    workers[i] = self._recycle(i, peak_rss, budget, mode, events)
            if tel.enabled and dispatch_peak > 0:
                # Gauges keep last-value semantics; the peak gauge is kept
                # monotone across dispatches so end-of-run summaries (and
                # the doctor) see the run's true high-water mark.
                prior = tel.metrics.gauges.get("engine.proc.worker_rss_peak", 0.0)
                if dispatch_peak > prior:
                    tel.gauge(
                        "engine.proc.worker_rss_peak", float(dispatch_peak)
                    )
            reduced = tree_reduce(partials)
            if use_shm:
                # The reduction root may be an shm view; the caller owns
                # the result beyond this dispatch's leases.
                reduced = np.array(reduced, dtype=np.float64, copy=True)
            return reduced
        finally:
            if use_shm:
                partials = out_views = None  # drop segment views first
                for lease in fmat_leases:
                    pool.release(lease)
                for lease in out_leases:
                    if lease is not None:
                        pool.release(lease)

    # ------------------------------------------------------------------ #
    def _send(self, workers: list[_Worker], i: int, task: dict) -> bool:
        """Deliver one task, respawning a dead worker once. Returns whether
        the task is in flight; a failed delivery is recorded as a lost
        worker and the caller executes the shard inline."""
        for _attempt in range(2):
            worker = workers[i]
            try:
                worker.conn.send(task)
                return True
            except (OSError, ValueError):
                self._record_lost(
                    worker, i, task["mode"], None,
                    context="task delivery failed",
                )
                workers[i] = self._respawn(i)
        return False

    def _collect(
        self, workers, i, stream, fmats, mode, out_rows, rank, cfg,
        events, *, out_view=None, oom=False,
    ) -> tuple:
        """Watchdog loop for one outstanding shard result.

        Returns ``(partial, batches, redone, peak_rss)``: the shard
        accumulator, the worker telemetry batches to merge under this
        shard's span (the piggybacked reply batch; on an in-worker
        exception, the failed attempt's batch *and* the redo's), whether
        the shard was re-executed serially, and the worker's peak RSS in
        bytes as sampled over this collection (0 where procfs is
        unavailable).

        The straggler deadline is anchored **here**, when this shard's
        collection begins — never at dispatch — so time spent collecting
        earlier shards (or serially redoing one) can never eat a later,
        healthy shard's budget. *out_view* is the parent-side view of the
        shard's shm accumulator (``None`` on the pipe transport): an
        ``"ok"`` reply means the worker filled it in place. *oom* marks a
        shard carrying the injected ``oom_worker`` fault, so its silent
        death is reported as a memory-pressure kill rather than a generic
        crash.
        """
        tel = current_telemetry()
        worker = workers[i]
        peak_rss = 0
        deadline = _NO_DEADLINE
        if cfg.shard_timeout > 0.0:
            deadline = time.monotonic() + cfg.shard_timeout
        while True:
            # One RSS sample per heartbeat: the gauge stream is what the
            # doctor (and the recycle decision) ranks against the budget.
            rss = _read_rss(worker.proc.pid)
            if rss > peak_rss:
                peak_rss = rss
                if tel.enabled:
                    tel.gauge("engine.proc.worker_rss", float(rss), worker=i)
            try:
                if worker.conn.poll(HEARTBEAT):
                    status, payload, batch = worker.conn.recv()
                    if status == "ok":
                        partial = out_view if out_view is not None else payload
                        return partial, [batch], False, peak_rss
                    # In-worker exception: worker survives, shard redone.
                    tel.counter("engine.shard.retries")
                    if isinstance(payload, str) and payload.startswith(
                        "ShmAttachError"
                    ):
                        tel.counter("engine.shm.attach_failures")
                    if events is not None:
                        events.record(
                            SHARD_RETRY, "MTTKRP", mode=mode,
                            detail=f"shard {i} worker raised ({payload}); "
                                   f"re-executed serially",
                            shard=i, nnz=stream.nnz,
                        )
                    partial, redo_batch = self._redo_captured(
                        stream, fmats, mode, out_rows, rank, cfg.chunk, i,
                        enabled=tel.enabled,
                    )
                    return partial, [batch, redo_batch], True, peak_rss
            except (EOFError, OSError):
                # The task pipe broke. The worker may well still be alive
                # (wedged in a long shard, or its FD closed under it) but
                # can never deliver this result — spinning on liveness
                # would hang forever with shard_timeout=0. Treat it as a
                # lost worker: record, respawn, redo serially. A dying
                # worker's pipe EOF can race its reapability, so grant a
                # short grace first — a real death is then reported with
                # its exitcode/signal instead of "became unreachable".
                worker.proc.join(timeout=0.2)
                self._record_lost(
                    worker, i, mode, events,
                    context="OOM-killed (injected memory pressure)"
                    if oom else "task pipe broke",
                )
                workers[i] = self._respawn(i)
                partial, batch = self._redo_captured(
                    stream, fmats, mode, out_rows, rank, cfg.chunk, i,
                    enabled=tel.enabled,
                )
                return partial, [batch], True, peak_rss
            if not worker.alive():
                self._record_lost(
                    worker, i, mode, events,
                    context="OOM-killed (injected memory pressure)"
                    if oom else None,
                )
                workers[i] = self._respawn(i)
                partial, batch = self._redo_captured(
                    stream, fmats, mode, out_rows, rank, cfg.chunk, i,
                    enabled=tel.enabled,
                )
                return partial, [batch], True, peak_rss
            if time.monotonic() >= deadline:
                # Straggler: kill it (its private accumulator dies with it)
                # and redo the shard serially, bit-identically.
                tel.counter("engine.shard.timeouts")
                if events is not None:
                    events.record(
                        SHARD_TIMEOUT, "MTTKRP", mode=mode,
                        detail=f"shard {i} missed its {cfg.shard_timeout:g}s "
                               f"deadline; worker killed and shard "
                               f"re-executed serially",
                        shard=i, nnz=stream.nnz,
                    )
                self._respawn(i)
                workers[i] = self._workers[i]
                partial, batch = self._redo_captured(
                    stream, fmats, mode, out_rows, rank, cfg.chunk, i,
                    enabled=tel.enabled,
                )
                return partial, [batch], True, peak_rss

    def _recycle(self, index, rss, budget, mode, events) -> _Worker:
        """Gracefully replace a worker whose RSS breached the memory budget.

        Unlike :meth:`_respawn` (a dead or wedged worker, killed outright)
        the recycled worker is healthy and idle — it is stopped with the
        shutdown sentinel so its final telemetry flush batch merges before
        the replacement starts, and nothing is lost.
        """
        worker = self._workers[index]
        tel = current_telemetry()
        try:
            batch = worker.stop()
        except (OSError, ValueError):  # pragma: no cover - defensive
            batch = None
        if batch is not None:
            merge_worker_batch(tel, batch)
        if self._shm_pool is not None:
            # Same hygiene as _respawn: the replacement must never attach
            # a recycled segment name from a dispatch it did not see.
            self._shm_pool.flush_free()
        self._workers[index] = _Worker(self._ctx, index)
        tel.counter("engine.proc.workers_recycled")
        if events is not None:
            events.record(
                WORKER_RECYCLED, "MTTKRP", mode=mode,
                detail=f"worker {index} peak RSS {rss} bytes breached the "
                       f"{budget}-byte memory budget; worker recycled at "
                       f"the shard boundary",
                worker=index, rss=int(rss), budget=int(budget),
            )
        return self._workers[index]

    def _record_lost(self, worker, i, mode, events, *, context=None) -> None:
        exitcode = worker.proc.exitcode
        if exitcode is not None and exitcode < 0:
            how = f"died on signal {signal.Signals(-exitcode).name}"
        elif exitcode is not None:
            how = f"exited with code {exitcode}"
        else:
            # Still-live worker behind a broken pipe, or a delivery race.
            how = "became unreachable"
        if context:
            how = f"{how} ({context})"
        current_telemetry().counter("engine.backend.workers_lost")
        if events is not None:
            events.record(
                WORKER_LOST, "MTTKRP", mode=mode,
                detail=f"shard {i} worker process {how}; worker respawned "
                       f"and shard re-executed serially",
                shard=i, exitcode=exitcode,
            )
