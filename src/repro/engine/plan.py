"""Per-tensor MTTKRP execution plans and the plan cache.

Every segment-based MTTKRP call in the seed kernels recomputes the same
preprocessing per call: the stable sort permutation of the nonzeros by the
target mode, the segment start offsets, the target rows, and (for the
linearized formats) the format conversion itself. All of that depends only
on the tensor's sparsity pattern — not on the factors — so it is computed
once per ``(tensor, format, mode)`` here and reused across every AO
iteration.

A :class:`MttkrpPlan` stores the nonzero stream *presorted* by the target
mode: per-mode coordinate columns, values, segment starts, and the output
row of each segment. Executing a plan (:mod:`repro.engine.execute`) then
needs no argsort and no ``rows[order]`` gather — the two biggest per-call
costs of :func:`repro.kernels.mttkrp_coo.segment_accumulate` — and chunked
execution falls out naturally from the segment starts.

:class:`PlanCache` keys entries by tensor identity with a content-hash
fallback (an equal copy of a cached tensor adopts the existing plans), and
guards against in-place mutation with a sampled fingerprint per lookup
(see ``EngineConfig.validate``). Hits and misses are counted through the
ambient telemetry session as ``engine.plan.hits`` / ``engine.plan.misses``
and ``engine.format.hits`` / ``engine.format.misses``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.engine.plan_store import store_key as _store_key
from repro.kernels.partition import greedy_assign
from repro.obs import current_telemetry

__all__ = ["SegmentStream", "MttkrpPlan", "PlanCache", "get_plan_cache"]


class SegmentStream:
    """A run of nonzeros presorted by target row, with segment boundaries.

    ``cols[m]`` are the mode-*m* coordinates in target-major order,
    ``values`` the matching nonzero values. ``starts`` marks the first
    position of each equal-target segment; ``bounds`` is ``starts`` with
    the total length appended, so segment *s* spans
    ``values[bounds[s]:bounds[s+1]]`` and accumulates into output row
    ``out_index[s]``.
    """

    __slots__ = ("cols", "values", "starts", "bounds", "out_index", "_edges")

    def __init__(self, cols, values, starts, out_index):
        self.cols = tuple(cols)
        self.values = values
        self.starts = starts
        self.bounds = np.append(starts, values.shape[0])
        self.out_index = out_index
        self._edges: dict[int, np.ndarray] = {}

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_segments(self) -> int:
        return int(self.starts.shape[0])

    def chunk_edges(self, chunk: int) -> np.ndarray:
        """Segment positions cutting the stream into ≈*chunk*-nonzero chunks.

        Chunk *i* covers segments ``[edges[i], edges[i+1])``. Boundaries
        always land on segment starts, so no output row is ever split
        across chunks — chunked accumulation reduces exactly the same runs
        as a flat ``np.add.reduceat`` and is therefore bitwise identical.
        A segment larger than *chunk* becomes its own oversized chunk.
        """
        edges = self._edges.get(chunk)
        if edges is None:
            edges = _chunk_edges(self.bounds, chunk)
            self._edges[chunk] = edges
        return edges

    def integrity_ok(self) -> bool:
        """Cheap structural self-check of the cached stream.

        Verifies the invariants execution relies on: one coordinate entry
        per nonzero, segment bounds that start at 0, end at ``nnz``, and
        never decrease, and one output row per segment. A cached stream
        that fails this probe is corrupt (bit flip, buggy in-place
        mutation, injected ``corrupt_plan`` fault) and must be replanned,
        not executed.
        """
        nnz = self.values.shape[0]
        if any(c.shape[0] != nnz for c in self.cols):
            return False
        if self.bounds.shape[0] != self.starts.shape[0] + 1:
            return False
        if self.out_index.shape[0] != self.starts.shape[0]:
            return False
        if nnz == 0:
            return True
        return bool(
            self.bounds[0] == 0
            and self.bounds[-1] == nnz
            and np.all(np.diff(self.bounds) > 0)
        )

    @property
    def nbytes(self) -> int:
        return int(
            sum(c.nbytes for c in self.cols)
            + self.values.nbytes
            + self.starts.nbytes
            + self.bounds.nbytes
            + self.out_index.nbytes
        )


def _chunk_edges(bounds: np.ndarray, chunk: int) -> np.ndarray:
    n_seg = bounds.shape[0] - 1
    if n_seg == 0:
        return np.zeros(1, dtype=np.int64)
    if chunk <= 0:
        return np.array([0, n_seg], dtype=np.int64)
    edges = [0]
    pos = 0
    while pos < n_seg:
        # Largest e with bounds[e] - bounds[pos] <= chunk, but at least one
        # segment so oversized segments still make progress.
        nxt = int(np.searchsorted(bounds, bounds[pos] + chunk, side="right")) - 1
        nxt = min(max(nxt, pos + 1), n_seg)
        edges.append(nxt)
        pos = nxt
    return np.asarray(edges, dtype=np.int64)


class MttkrpPlan:
    """The cached preprocessing for one ``(tensor, format, mode)`` MTTKRP."""

    __slots__ = ("mode", "out_rows", "stream", "store_key", "_shards")

    def __init__(self, mode: int, out_rows: int, stream: SegmentStream):
        self.mode = mode
        self.out_rows = out_rows
        self.stream = stream
        #: Key of this plan's on-disk :class:`~repro.engine.plan_store.
        #: PlanStore` entry, when one exists — lets the process backend ship
        #: shard work by reference instead of pickling streams per task.
        self.store_key: str | None = None
        self._shards: dict[int, list[SegmentStream]] = {}

    @classmethod
    def from_arrays(cls, indices, values, shape, mode: int) -> "MttkrpPlan":
        """Build a plan from a COO-like ``(nnz, ndim)`` index array."""
        indices = np.asarray(indices)
        if indices.ndim != 2:  # the index array of an empty tensor
            indices = indices.reshape(0, len(shape))
        return cls.from_columns(np.ascontiguousarray(indices.T), values, shape, mode)

    @classmethod
    def from_columns(cls, columns, values, shape, mode: int) -> "MttkrpPlan":
        """Build a plan from one coordinate array per mode.

        The stable argsort matches :func:`segment_accumulate` exactly, so
        executing the plan reproduces the seed kernel's summation order —
        and with it, its bits. It sorts on the narrowest unsigned dtype
        that holds the mode length: equal keys give the same stable
        permutation, and keys of up to 16 bits get NumPy's radix sort.
        """
        values = np.asarray(values, dtype=np.float64)
        key_dtype = np.min_scalar_type(max(int(shape[mode]) - 1, 0))
        order = np.argsort(np.asarray(columns[mode]).astype(key_dtype), kind="stable")
        cols = tuple(np.asarray(c, dtype=np.int64)[order] for c in columns)
        values_sorted = values[order]
        st = cols[mode]
        if st.shape[0]:
            starts = np.flatnonzero(np.concatenate(([True], st[1:] != st[:-1])))
        else:
            starts = np.zeros(0, dtype=np.int64)
        stream = SegmentStream(cols, values_sorted, starts, st[starts])
        return cls(mode, int(shape[mode]), stream)

    def integrity_ok(self) -> bool:
        """Whether the cached stream still satisfies its invariants."""
        return self.stream.integrity_ok()

    def shard_streams(self, n_shards: int) -> list[SegmentStream]:
        """Split the stream into *n_shards* per-worker streams.

        Whole segments are LPT-greedily assigned to workers
        (:func:`~repro.kernels.partition.greedy_assign` — deterministic by
        construction), then each worker's nonzeros are gathered once into a
        private contiguous stream. Workers own disjoint output rows, so
        their private accumulators tree-reduce without write conflicts.
        """
        streams = self._shards.get(n_shards)
        if streams is not None:
            return streams
        stream = self.stream
        if n_shards <= 1 or stream.n_segments <= 1:
            streams = [stream]
        else:
            seg_sizes = np.diff(stream.bounds)
            owner, _loads = greedy_assign(seg_sizes, n_shards)
            streams = []
            for w in range(n_shards):
                segs = np.flatnonzero(owner == w)
                if w > 0 and segs.size == 0:
                    continue  # fewer segments than shards
                sizes = seg_sizes[segs]
                local_starts = np.concatenate(
                    ([0], np.cumsum(sizes[:-1]))
                ).astype(np.int64) if segs.size else np.zeros(0, dtype=np.int64)
                total = int(sizes.sum())
                sel = (
                    np.repeat(stream.bounds[segs] - local_starts, sizes)
                    + np.arange(total, dtype=np.int64)
                )
                streams.append(
                    SegmentStream(
                        tuple(c[sel] for c in stream.cols),
                        stream.values[sel],
                        local_starts,
                        stream.out_index[segs],
                    )
                )
        self._shards[n_shards] = streams
        return streams

    @property
    def nbytes(self) -> int:
        shards = sum(s.nbytes for ss in self._shards.values() for s in ss)
        return self.stream.nbytes + shards


# --------------------------------------------------------------------- #
class _Entry:
    __slots__ = ("tensor", "probe", "content", "plans", "formats")

    def __init__(self, tensor, probe, content, plans=None, formats=None):
        self.tensor = tensor
        self.probe = probe
        self.content = content
        self.plans = plans if plans is not None else {}
        self.formats = formats if formats is not None else {}


def _probe(tensor) -> tuple:
    """Cheap mutation fingerprint: shape, nnz, 16 sampled coordinates/values."""
    nnz = tensor.nnz
    if nnz == 0:
        return (tuple(tensor.shape), 0)
    sample = np.linspace(0, nnz - 1, num=min(nnz, 16)).astype(np.int64)
    return (
        tuple(tensor.shape),
        nnz,
        tensor.indices[sample].tobytes(),
        tensor.values[sample].tobytes(),
    )


def _content_hash(tensor) -> str:
    h = hashlib.sha1()
    h.update(repr(tuple(tensor.shape)).encode())
    h.update(np.ascontiguousarray(tensor.indices).tobytes())
    h.update(np.ascontiguousarray(tensor.values).tobytes())
    return h.hexdigest()


class PlanCache:
    """LRU cache of per-tensor plans and format conversions.

    Entries hold a strong reference to their tensor (identity keys must
    stay stable), so the cache pins at most ``max_tensors`` tensors plus
    their plans; evicted or invalidated entries release everything.
    """

    def __init__(self, max_tensors: int = 16, store=None):
        self.max_tensors = int(max_tensors)
        #: Optional :class:`~repro.engine.plan_store.PlanStore` tier: plan
        #: misses probe the store before building, and fresh builds are
        #: persisted under their content-fingerprint key. ``None`` keeps
        #: the cache purely in-memory.
        self.store = store
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._by_content: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.format_hits = 0
        self.format_misses = 0
        self.repairs = 0
        """Self-heal count: corrupted or stale cached state that was
        evicted and replanned instead of raising (mirrored to the
        ``engine.plan.repairs`` telemetry counter)."""

    def record_repair(self, detail: str) -> None:
        self.repairs += 1
        current_telemetry().counter("engine.plan.repairs", detail=detail)

    # ------------------------------------------------------------------ #
    def plan(
        self,
        tensor,
        mode: int,
        *,
        fmt: str = "coo",
        indices=None,
        values=None,
        validate: str = "cheap",
        events=None,
    ) -> MttkrpPlan:
        """The cached plan for ``(tensor, fmt, mode)``; built on first use.

        ``indices``/``values`` override the arrays the plan is built from
        (used by the ALTO path, which plans over the decoded linearized
        order rather than the canonical COO order).

        With a :attr:`store` attached, an in-memory miss probes the
        on-disk tier under the content-fingerprint key before building —
        the key depends only on tensor bytes, format, and mode, so plans
        persisted by another process (or a previous run) are found — and
        every fresh build is persisted back. A store entry that fails
        validation is quarantined by the store (reported on *events* as
        ``plan_repaired``) and simply counts as a miss here. ``indices``
        overrides skip the store: the key cannot see the override arrays.
        """
        entry = self._entry(tensor, validate)
        key = (fmt, int(mode))
        plan = entry.plans.get(key)
        tel = current_telemetry()
        if plan is not None and validate != "off" and not plan.integrity_ok():
            # Self-heal: a corrupted cached plan is evicted and replanned
            # instead of feeding garbage offsets into the execution layer.
            entry.plans.pop(key, None)
            plan = None
            self.record_repair(f"plan {fmt}/mode{mode} failed its integrity probe")
        if plan is None:
            use_store = (
                self.store is not None and indices is None and values is None
            )
            skey = _store_key(entry.content, fmt, mode) if use_store else None
            if skey is not None:
                plan = self.store.load(skey, events=events)
            if plan is None:
                self.misses += 1
                tel.counter("engine.plan.misses")
                plan = MttkrpPlan.from_arrays(
                    tensor.indices if indices is None else indices,
                    tensor.values if values is None else values,
                    tensor.shape,
                    mode,
                )
                if skey is not None:
                    # Store tier is best-effort: save() swallows write
                    # failures (ENOSPC) itself and returns None.
                    if self.store.save(skey, plan, events=events) is not None:
                        plan.store_key = skey
            entry.plans[key] = plan
        else:
            self.hits += 1
            tel.counter("engine.plan.hits")
            # Backfill: a plan built before the store was attached (or
            # whose entry was quarantined) is persisted on its next hit,
            # so the on-disk tier converges to the in-memory contents.
            if (
                self.store is not None
                and plan.store_key is None
                and indices is None
                and values is None
            ):
                skey = _store_key(entry.content, fmt, mode)
                if self.store.save(skey, plan, events=events) is not None:
                    plan.store_key = skey
            elif self.store is not None and plan.store_key is not None:
                # LRU touch: an in-memory hit never re-reads the file, so
                # without this the budget enforcer sees the hottest plan
                # as the coldest entry and evicts it first under pressure
                # (from this process's saves or a sibling's).
                self.store.touch(plan.store_key)
        return plan

    def block_plans(
        self, tensor, blocked, mode: int, validate: str = "cheap", *,
        fmt: str = "blco",
    ) -> list:
        """Per-block segment streams for a blocked format, cached per mode.

        ``blocked`` is the cached BLCO or HiCOO conversion; plans are keyed
        ``(f"{fmt}_blocks", mode)`` and built in the format's block order,
        which the serial per-block execution preserves bit for bit.
        """
        entry = self._entry(tensor, validate)
        key = (f"{fmt}_blocks", int(mode))
        plans = entry.plans.get(key)
        tel = current_telemetry()
        if plans is not None and validate != "off" and not all(
            p.integrity_ok() for p in plans
        ):
            entry.plans.pop(key, None)
            plans = None
            self.record_repair(f"block plans {fmt}/mode{mode} failed the integrity probe")
        if plans is None:
            self.misses += 1
            tel.counter("engine.plan.misses")
            plans = self._build_block_plans(blocked, mode, fmt)
            entry.plans[key] = plans
        else:
            self.hits += 1
            tel.counter("engine.plan.hits")
        return plans

    @staticmethod
    def _build_block_plans(blocked, mode: int, fmt: str) -> list:
        plans = []
        if fmt == "blco":
            for block in blocked.blocks:
                cols = [blocked.block_mode_indices(block, m) for m in range(blocked.ndim)]
                plans.append(
                    MttkrpPlan.from_columns(cols, block.values, blocked.shape, mode)
                )
        elif fmt == "hicoo":
            for b in range(blocked.num_blocks):
                _, _, values = blocked.block_slice(b)
                cols = [blocked.mode_indices_of_block(b, m) for m in range(blocked.ndim)]
                plans.append(
                    MttkrpPlan.from_columns(cols, values, blocked.shape, mode)
                )
        else:  # pragma: no cover - callers pass known formats
            raise ValueError(f"unknown blocked format {fmt!r}")
        return plans

    def format(self, tensor, fmt: str, build, validate: str = "cheap"):
        """The cached format conversion for *tensor*; ``build(tensor)`` on miss.

        Used for ALTO/BLCO linearizations, CSF mode trees, and the decoded
        ALTO coordinate matrix — every once-per-tensor derivation that the
        seed path redoes once per ``cstf`` call.
        """
        entry = self._entry(tensor, validate)
        tel = current_telemetry()
        converted = entry.formats.get(fmt)
        if converted is None:
            self.format_misses += 1
            tel.counter("engine.format.misses")
            converted = build(tensor)
            entry.formats[fmt] = converted
        else:
            self.format_hits += 1
            tel.counter("engine.format.hits")
        return converted

    # ------------------------------------------------------------------ #
    def _entry(self, tensor, validate: str) -> _Entry:
        key = id(tensor)
        entry = self._entries.get(key)
        if entry is not None and entry.tensor is tensor:
            if (
                validate == "off"
                or (validate == "cheap" and entry.probe == _probe(tensor))
                or (validate == "full" and entry.content == _content_hash(tensor))
            ):
                self._entries.move_to_end(key)
                return entry
            # Stale: the tensor mutated under the cache. Evict-and-replan
            # (counted as a repair) rather than serving poisoned plans.
            self._evict(key)
            self.record_repair("tensor fingerprint mismatch; entry evicted")
        elif entry is not None:
            self._evict(key)  # id reuse by a different object

        # Content fallback: an equal copy adopts the existing entry's plans.
        content = _content_hash(tensor)
        twin_key = self._by_content.get(content)
        if twin_key is not None and twin_key in self._entries:
            twin = self._entries[twin_key]
            entry = _Entry(tensor, _probe(tensor), content, twin.plans, twin.formats)
        else:
            entry = _Entry(tensor, _probe(tensor), content)
            self._by_content[content] = key
        self._entries[key] = entry
        while len(self._entries) > self.max_tensors:
            old_key, _ = self._entries.popitem(last=False)
            self._drop_content_key(old_key)
        current_telemetry().gauge("engine.plan.tensors", float(len(self._entries)))
        return entry

    def _drop_content_key(self, key: int) -> None:
        for content, mapped in list(self._by_content.items()):
            if mapped == key:
                del self._by_content[content]

    def _evict(self, key: int) -> None:
        self._entries.pop(key, None)
        self._drop_content_key(key)

    # ------------------------------------------------------------------ #
    def invalidate(self, tensor) -> None:
        """Drop every cached plan/format of *tensor* (after mutating it)."""
        self._evict(id(tensor))

    def drop_plans(self, tensor) -> int:
        """Drop *tensor*'s in-memory plans, keeping format conversions.

        The next :meth:`plan` lookup goes back through the store tier (when
        one is attached) — the hook the chaos harness uses to force a
        corrupted store entry onto the read path. Returns the number of
        plan slots dropped.
        """
        entry = self._entries.get(id(tensor))
        if entry is None or entry.tensor is not tensor:
            return 0
        dropped = len(entry.plans)
        entry.plans.clear()
        return dropped

    def corrupt(self, tensor, how: str = "bounds") -> int:
        """Deliberately corrupt *tensor*'s cached plans (chaos testing).

        ``how="bounds"`` breaks each stream's segment-bound invariant —
        detectable by the integrity probe, so the next lookup self-heals.
        ``how="cols"`` poisons a coordinate with an out-of-range index —
        *not* probe-detectable; execution raises and the driver's
        replan-once recovery fires instead. Returns the number of plans
        corrupted (0 when the tensor has no cached entry).
        """
        entry = self._entries.get(id(tensor))
        if entry is None or entry.tensor is not tensor:
            return 0
        corrupted = 0
        for plan in entry.plans.values():
            for p in plan if isinstance(plan, list) else [plan]:
                stream = p.stream
                if stream.nnz == 0:
                    continue
                if how == "bounds":
                    stream.bounds[-1] = stream.nnz + 7
                else:
                    stream.cols[0][stream.nnz // 2] = 2**31
                corrupted += 1
        return corrupted

    def clear(self) -> None:
        self._entries.clear()
        self._by_content.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        """Plan-lookup hit fraction over this cache's lifetime (0.0 if unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def nbytes(self) -> int:
        total = 0
        for entry in self._entries.values():
            for plan in entry.plans.values():
                plans = plan if isinstance(plan, list) else [plan]
                total += sum(p.nbytes for p in plans)
        return total


#: Process-wide default cache, shared by every engine-enabled cstf run so
#: plans survive across calls on the same tensor (the AUNTF/streaming
#: pattern: many factorizations of one tensor).
_DEFAULT_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide default :class:`PlanCache`."""
    return _DEFAULT_CACHE
