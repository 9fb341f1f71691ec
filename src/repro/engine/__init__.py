"""The plan-and-execute engine behind every multiply entry point.

Splits ATMULT's monolithic loop into *deciding*
(:func:`~repro.engine.plan.build_plan` → :class:`ExecutionPlan`) and
*doing* (:func:`~repro.engine.executor.execute_plan`), keyed for reuse
by operand-structure fingerprints plus a configuration hash
(:mod:`repro.engine.fingerprint`, :class:`PlanCache`), and fronted by
the consolidated :class:`MultiplyOptions` / :class:`Session` API.
"""

from .api import execute, plan, resolve_plan, run_chain
from .cache import CacheStats, ChainKey, PlanCache, PlanKey
from .executor import (
    EXECUTION_MODES,
    FusedChainOutcome,
    PairComputer,
    execute_fused_chain,
    execute_plan,
)
from .fingerprint import (
    chain_fingerprint,
    config_fingerprint,
    structure_fingerprint,
)
from .options import MultiplyOptions, coerce_options
from .plan import (
    ExecutionPlan,
    FusedChainPlan,
    HopSource,
    PlannedHop,
    PlannedPair,
    PlannedProduct,
    build_chain_plan,
    build_plan,
    fused_chain_schedule,
)
from .session import Session
from .shard import ShardConfig

__all__ = [
    "EXECUTION_MODES",
    "CacheStats",
    "ChainKey",
    "ExecutionPlan",
    "FusedChainOutcome",
    "FusedChainPlan",
    "HopSource",
    "MultiplyOptions",
    "PairComputer",
    "PlanCache",
    "PlanKey",
    "PlannedHop",
    "PlannedPair",
    "PlannedProduct",
    "Session",
    "ShardConfig",
    "build_chain_plan",
    "build_plan",
    "chain_fingerprint",
    "coerce_options",
    "config_fingerprint",
    "execute",
    "execute_fused_chain",
    "execute_plan",
    "fused_chain_schedule",
    "plan",
    "resolve_plan",
    "run_chain",
    "structure_fingerprint",
]
