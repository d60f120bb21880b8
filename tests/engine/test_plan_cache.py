"""The per-tensor plan cache: keys, hits, invalidation, LRU, twin adoption."""

import numpy as np
import pytest

from repro.engine import EngineConfig, MttkrpPlan, PlanCache, resolve_engine
from repro.engine.config import default_shards
from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import random_sparse


@pytest.fixture
def tensor():
    return random_sparse((17, 13, 9), nnz=300, seed=5)


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.chunk == 4096 and cfg.shards == 1
        assert not cfg.gram_rescale and cfg.validate == "cheap"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(chunk=-1)
        with pytest.raises(ValueError):
            EngineConfig(shards=0)
        with pytest.raises(ValueError):
            EngineConfig(validate="sometimes")

    def test_resolve_settings(self):
        assert resolve_engine(None) is None
        assert resolve_engine(False) is None
        assert resolve_engine("off") is None
        assert resolve_engine(True) == EngineConfig()
        assert resolve_engine("on") == EngineConfig()
        assert resolve_engine("cached") == EngineConfig()
        assert resolve_engine("sharded").shards == default_shards()
        assert resolve_engine({"chunk": 512, "shards": 3}) == EngineConfig(
            chunk=512, shards=3
        )
        cfg = EngineConfig(shards=2)
        assert resolve_engine(cfg) is cfg
        with pytest.raises(ValueError):
            resolve_engine("turbo")


class TestPlanCacheLookups:
    def test_miss_then_hits(self, tensor):
        cache = PlanCache()
        first = cache.plan(tensor, 0)
        again = cache.plan(tensor, 0)
        assert first is again
        assert (cache.misses, cache.hits) == (1, 1)
        assert cache.hit_rate() == 0.5

    def test_modes_are_separate_plans(self, tensor):
        cache = PlanCache()
        plans = {cache.plan(tensor, m).mode for m in range(tensor.ndim)}
        assert plans == {0, 1, 2}
        assert cache.misses == tensor.ndim and len(cache) == 1

    def test_invalidate_drops_plans(self, tensor):
        cache = PlanCache()
        cache.plan(tensor, 0)
        cache.invalidate(tensor)
        assert len(cache) == 0
        cache.plan(tensor, 0)
        assert cache.misses == 2

    def test_cheap_probe_detects_mutation(self, tensor):
        cache = PlanCache()
        stale = cache.plan(tensor, 0)
        tensor._values = tensor.values.copy()
        tensor._values[0] += 1.0  # in-place mutation under the cache
        fresh = cache.plan(tensor, 0)
        assert fresh is not stale
        assert np.array_equal(np.sort(fresh.stream.values), np.sort(tensor.values))

    def test_full_validation_detects_mid_array_mutation(self, tensor):
        """A single interior value change can dodge the 16-point sample;
        validate='full' hashes everything."""
        cache = PlanCache()
        cache.plan(tensor, 0, validate="full")
        tensor._values = tensor.values.copy()
        tensor._values[7] *= 2.0
        cache.plan(tensor, 0, validate="full")
        assert cache.misses == 2

    def test_content_twin_adopts_existing_plans(self, tensor):
        cache = PlanCache()
        plan = cache.plan(tensor, 1)
        twin = SparseTensor(
            tensor.indices.copy(), tensor.values.copy(), tensor.shape
        )
        assert cache.plan(twin, 1) is plan
        assert cache.hits == 1 and len(cache) == 2

    def test_lru_evicts_oldest_tensor(self):
        cache = PlanCache(max_tensors=2)
        tensors = [random_sparse((11, 7, 5), nnz=60, seed=s) for s in range(3)]
        for t in tensors:
            cache.plan(t, 0)
        assert len(cache) == 2
        cache.plan(tensors[0], 0)  # evicted → rebuilt
        assert cache.misses == 4

    def test_format_cache_builds_once(self, tensor):
        cache = PlanCache()
        calls = []

        def build(t):
            calls.append(t)
            return "converted"

        assert cache.format(tensor, "alto", build) == "converted"
        assert cache.format(tensor, "alto", build) == "converted"
        assert len(calls) == 1
        assert (cache.format_misses, cache.format_hits) == (1, 1)

    def test_nbytes_accounts_plans(self, tensor):
        cache = PlanCache()
        assert cache.nbytes == 0
        cache.plan(tensor, 0)
        assert cache.nbytes > 0


class TestPlanStructure:
    def test_plan_matches_seed_sort(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 0
        )
        order = np.argsort(tensor.indices[:, 0], kind="stable")
        assert np.array_equal(plan.stream.values, tensor.values[order])
        assert np.array_equal(plan.stream.cols[0], tensor.indices[order, 0])
        # Segment out_index covers exactly the occupied rows, ascending.
        assert np.array_equal(
            plan.stream.out_index, np.unique(tensor.indices[:, 0])
        )

    @pytest.mark.parametrize("rows", [200, 1717, 70_000])
    def test_narrow_key_sort_matches_int64_permutation(self, rows):
        """Targets sort on uint8/uint16/uint32 keys; with many ties the
        stable permutation must equal the int64 one."""
        rng = np.random.default_rng(rows)
        nnz = 5000
        targets = rng.integers(0, min(rows, 40), size=nnz)  # heavy ties
        indices = np.stack([rng.integers(0, 7, size=nnz), targets], axis=1)
        values = rng.random(nnz)
        plan = MttkrpPlan.from_arrays(indices, values, (7, rows), 1)
        order = np.argsort(indices[:, 1].astype(np.int64), kind="stable")
        assert np.array_equal(plan.stream.values, values[order])
        for m in range(2):
            assert np.array_equal(plan.stream.cols[m], indices[order, m])

    def test_chunk_edges_align_to_segments(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 1
        )
        stream = plan.stream
        for chunk in (1, 7, 64, 0):
            edges = stream.chunk_edges(chunk)
            assert edges[0] == 0 and edges[-1] == stream.n_segments
            assert (np.diff(edges) >= 1).all()
            if chunk > 0:
                # Each chunk holds <= chunk nonzeros unless it is a single
                # oversized segment.
                spans = stream.bounds[edges[1:]] - stream.bounds[edges[:-1]]
                single = np.diff(edges) == 1
                assert ((spans <= chunk) | single).all()

    def test_shard_streams_partition_segments(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 2
        )
        streams = plan.shard_streams(3)
        assert sum(s.nnz for s in streams) == tensor.nnz
        rows = [set(s.out_index.tolist()) for s in streams]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert not rows[i] & rows[j], "shards must own disjoint rows"

    def test_shard_streams_memoized(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 0
        )
        assert plan.shard_streams(4) is plan.shard_streams(4)
