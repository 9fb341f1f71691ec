"""Keyed plan cache: skip re-planning for same-topology multiplies.

Iterative workloads (repeated products, chained expressions)
multiply the *same* matrix topology over and over with different values.
Planning — density estimation, the water-level sweep, thousands of
kernel decisions — depends only on topology and configuration, so its
result is cacheable: :class:`PlanCache` maps
``(A fingerprint, B fingerprint, setup key)`` to the resolved
:class:`~repro.engine.plan.ExecutionPlan`.

The cache is LRU over an approximate byte budget
(:meth:`ExecutionPlan.memory_bytes`), thread-safe, and observable: hits,
misses and evictions land both in local counters (``cache.stats()``
returns a frozen :class:`CacheStats` snapshot) and, when an observation
session is active, in the ``plan_cache.hits`` / ``plan_cache.misses`` /
``plan_cache.evictions`` metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

from ..observe import session as observe_session
from .plan import ExecutionPlan, FusedChainPlan

#: Default byte budget: roomy enough for hundreds of realistic plans.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: What a :class:`PlanCache` stores: single-product plans keyed by
#: :class:`PlanKey`, whole fused chains keyed by :class:`ChainKey`.
CachedPlan = ExecutionPlan | FusedChainPlan


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one :class:`PlanCache`'s counters.

    Read the counters as attributes (``stats.hits``); :meth:`as_dict`
    gives the plain dict the service metrics endpoint serializes.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    bytes: int
    max_bytes: int

    @property
    def lookups(self) -> int:
        """Total cache probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first probe."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain JSON-serializable dict."""
        return asdict(self)


@dataclass(frozen=True)
class PlanKey:
    """Full identity of a plan: operand topologies plus planning setup."""

    a_fingerprint: str
    b_fingerprint: str
    setup_key: str


@dataclass(frozen=True)
class ChainKey:
    """Full identity of a fused chain plan.

    Every leaf operand's structure fingerprint in chain order plus the
    setup key.  The parenthesization is *not* part of the key: the chain
    DP is deterministic given the leaf structures and the configuration,
    so the key's inputs already determine it.
    """

    operand_fingerprints: tuple[str, ...]
    setup_key: str


CacheKey = PlanKey | ChainKey


class PlanCache:
    """LRU cache of single-product and fused chain plans (byte budget).

    >>> cache = PlanCache(max_bytes=1 << 20)
    >>> cache.stats().hits
    0
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._plans: OrderedDict[CacheKey, CachedPlan] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: CacheKey) -> CachedPlan | None:
        """The cached plan for ``key``, bumped to most-recently-used."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                observe_session.counter("plan_cache.misses").inc()
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            observe_session.counter("plan_cache.hits").inc()
            return plan

    def put(self, key: CacheKey, plan: CachedPlan) -> None:
        """Insert ``plan``, evicting least-recently-used entries to fit.

        A plan larger than the whole budget is not cached at all (it
        would only evict everything and then miss next time anyway).
        """
        size = plan.memory_bytes()
        if size > self.max_bytes:
            return
        with self._lock:
            previous = self._plans.pop(key, None)
            if previous is not None:
                self._bytes -= previous.memory_bytes()
            self._plans[key] = plan
            self._bytes += size
            while self._bytes > self.max_bytes and len(self._plans) > 1:
                _, evicted = self._plans.popitem(last=False)
                self._bytes -= evicted.memory_bytes()
                self.evictions += 1
                observe_session.counter("plan_cache.evictions").inc()

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._bytes = 0

    def stats(self) -> CacheStats:
        """Frozen snapshot of the cache counters and occupancy."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._plans),
                bytes=self._bytes,
                max_bytes=self.max_bytes,
            )
