"""Host execution engine: plan cache, batched MTTKRP, sharded execution.

The engine makes the *concrete* NumPy hot paths fast without touching the
simulated machine model: per-tensor execution plans cache everything the
seed kernels recompute per call (sort permutations, segment offsets,
format conversions), execution is cache-blocked and optionally sharded
across threads, and the all-mode batched driver shares factor-row gathers
when one set of factors serves every mode. See docs/PERFORMANCE.md.

Enable per run via ``CstfConfig(engine="on" | "sharded" | EngineConfig(...))``
or on the CLI with ``repro factorize --engine on``.
"""

from repro.engine.backends import (
    ExecutionBackend,
    get_backend,
    shutdown_backends,
)
from repro.engine.batched import all_mode_krp_rows
from repro.engine.config import EngineConfig, resolve_engine
from repro.engine.driver import (
    EngineMttkrp,
    PlanBuildError,
    engine_mttkrp,
)
from repro.engine.execute import (
    run_plan,
    run_shards,
    run_stream,
    sharded_segment_accumulate,
    shutdown_pools,
)
from repro.engine.plan import MttkrpPlan, PlanCache, SegmentStream, get_plan_cache
from repro.engine.plan_store import PlanStore, store_key

__all__ = [
    "EngineConfig",
    "resolve_engine",
    "ExecutionBackend",
    "get_backend",
    "shutdown_backends",
    "shutdown_pools",
    "PlanStore",
    "store_key",
    "MttkrpPlan",
    "SegmentStream",
    "PlanCache",
    "get_plan_cache",
    "engine_mttkrp",
    "EngineMttkrp",
    "PlanBuildError",
    "all_mode_krp_rows",
    "run_plan",
    "run_shards",
    "run_stream",
    "sharded_segment_accumulate",
]
