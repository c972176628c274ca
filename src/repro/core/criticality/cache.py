"""A bounded LRU cache for critical-tuple sets.

Critical tuples are the single hot artifact of every analysis in this
library: ``crit_D(Q)`` is recomputed by each security decision, each
collusion coalition, each knowledge corollary and each batch audit.  The
cache memoizes them under a key that is insensitive to everything that
cannot change the result — query display names and variable spellings
are normalised away by :func:`repro.cq.canonical.canonical_query_key`
— while being fully sensitive to everything that can: the canonical
query form, the tuple-space (schema fingerprint), the analysis domain
and, for ``crit_D(Q, K)``, the instance constraint.

:meth:`CriticalTupleCache.critical_tuples` is the cached drop-in for
:func:`~repro.core.criticality.critical_tuples` that the decision
procedures take as ``critical_fn``.  Every session owns (or shares) one
cache; :func:`default_cache` is the process-wide one, and
:func:`resolve_critical_fn` makes it the provider of every decision
procedure called without ``critical_fn``.

The cache is bounded (LRU eviction) and keeps hit/miss/eviction
statistics so callers can verify the sharing they expect actually
happens (see ``benchmarks/bench_session_cache.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from ...cq.canonical import AnyQuery, canonical_query_key
from ...exceptions import SecurityAnalysisError
from ...obs import span
from ...relational.domain import Domain
from ...relational.schema import Schema
from ...relational.tuples import Fact
from .base import InstanceConstraint
from .pruned import critical_tuples

__all__ = [
    "CacheStats",
    "CriticalTupleCache",
    "default_cache",
    "resolve_critical_fn",
    "schema_fingerprint",
]

#: Default number of critical-tuple sets kept by a session cache.
DEFAULT_CACHE_SIZE = 512


def schema_fingerprint(schema: Schema) -> Tuple:
    """A hashable fingerprint of everything that shapes a tuple space.

    Two schemas with the same fingerprint have identical ``tup(D)`` and
    therefore identical critical-tuple sets for any query, so the
    fingerprint (together with the analysis domain and the canonical
    query form) is a sound cache key component.
    """
    relations = tuple(
        (
            relation.name,
            relation.attributes,
            relation.key or (),
            tuple(
                sorted(
                    (attribute, tuple(domain.values))
                    for attribute, domain in relation.attribute_domains.items()
                )
            ),
        )
        for relation in sorted(schema, key=lambda r: r.name)
    )
    domain = getattr(schema, "domain", None)
    return (relations, tuple(domain.values) if domain is not None else ())


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a cache's counters.

    Attributes
    ----------
    hits / misses:
        Lookups answered from the cache vs. computed fresh.
    evictions:
        Entries dropped because the cache was full (LRU order).
    size / maxsize:
        Current and maximum number of cached critical-tuple sets.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """The stats as plain JSON (used by ``stats`` and ``audit --json``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """The counter increments accumulated since an ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            size=self.size,
            maxsize=self.maxsize,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, size={self.size}/{self.maxsize})"
        )


class CriticalTupleCache:
    """A thread-safe bounded LRU cache of ``crit_D(Q)`` sets.

    Keys are hashable tuples — :meth:`critical_tuples` assembles (schema
    fingerprint, canonical query form, domain values, instance
    constraint); values are the frozen critical-tuple sets.
    ``get_or_compute`` is the only way entries are created, which keeps
    the hit/miss accounting exact.  Each lookup is also tallied for the
    thread that made it (:meth:`thread_stats`), so a call on a shared
    cache can report its own activity.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise SecurityAnalysisError("critical-tuple cache size must be at least 1")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Hashable, FrozenSet[Fact]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        #: Thread ident → ``[hits, misses, evictions]`` of that thread's
        #: lookups.  A new thread may reuse a finished one's ident; only
        #: deltas on one thread are read, so the inherited counts cancel.
        self._tallies: Dict[int, List[int]] = {}

    @property
    def maxsize(self) -> int:
        """Maximum number of entries kept."""
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[FrozenSet[Fact]]:
        """The cached set for ``key``, or ``None`` (does not count as a lookup)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], FrozenSet[Fact]]
    ) -> FrozenSet[Fact]:
        """The cached set for ``key``, computing and inserting it on a miss."""
        with self._lock:
            tally = self._tally()
            value = self._entries.get(key)
            if value is not None:
                self._hits += 1
                tally[0] += 1
                self._entries.move_to_end(key)
                return value
        # Compute outside the lock: critical-tuple searches can be slow and
        # must not serialise unrelated lookups.  A concurrent duplicate
        # computation is possible but harmless (same deterministic result).
        value = frozenset(compute())
        with self._lock:
            self._misses += 1
            tally[1] += 1
            if key not in self._entries and len(self._entries) >= self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                tally[2] += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            return value

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """A snapshot of the current counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
            )

    def _tally(self) -> List[int]:
        """The calling thread's ``[hits, misses, evictions]`` (hold the lock)."""
        ident = threading.get_ident()
        tally = self._tallies.get(ident)
        if tally is None:
            tally = self._tallies[ident] = [0, 0, 0]
        return tally

    def thread_stats(self) -> CacheStats:
        """Like :meth:`stats`, but counting only the calling thread's lookups.

        crit_D runs on the thread that asked for it, so the delta of two
        snapshots taken on one thread is exactly the activity of the
        calls that thread made in between, whatever other threads did to
        the shared cache meanwhile.
        """
        with self._lock:
            hits, misses, evictions = self._tally()
            size = len(self._entries)
        return CacheStats(
            hits=hits, misses=misses, evictions=evictions, size=size, maxsize=self._maxsize
        )

    def critical_tuples(
        self,
        query: AnyQuery,
        schema: Schema,
        domain: Optional[Domain] = None,
        constraint: Optional[InstanceConstraint] = None,
        **options,
    ) -> FrozenSet[Fact]:
        """``crit_D(Q)`` through this cache: a drop-in ``critical_fn``.

        A constraint-relative set (``crit_D(Q, K)``) is keyed by its
        constraint too, so it never answers the unconstrained lookup of
        the same query, nor the reverse.  A constraint compares as its
        type says: the :class:`~repro.core.prior.KeyConstraint` values of
        equal key declarations are equal, so they share one entry.  A
        closure keys by identity, which is sound (the key keeps it alive)
        but never hits: each call of a closure-building knowledge class
        makes a new one.

        Cost-guard options such as ``max_valuations`` are deliberately
        *not* part of the key: they bound the computation, not the
        result, so a warm cache may serve a set that a colder cache
        would have refused to compute under a tighter bound.
        """
        if domain is None:
            domain = schema.domain
        key = (
            schema_fingerprint(schema),
            canonical_query_key(query),
            tuple(domain.values),
            constraint,
        )
        return self.get_or_compute(
            key, lambda: _compute(query, schema, domain, constraint, **options)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CriticalTupleCache({self.stats()!r})"


def _compute(*args, **options) -> FrozenSet[Fact]:
    with span("criticality.compute"):
        return critical_tuples(*args, **options)


_DEFAULT_CACHE = CriticalTupleCache()


def default_cache() -> CriticalTupleCache:
    """The process-wide cache the free functions use without ``critical_fn``.

    One cache serves every schema: the key embeds the schema
    fingerprint, so sharing is sound, and two schemas with the same
    relations reuse each other's sets.
    """
    return _DEFAULT_CACHE


def resolve_critical_fn(critical_fn=None):
    """The crit_D provider of a decision procedure: ``critical_fn``, else the process cache.

    Every entry point of :mod:`repro.core` that computes critical tuples
    resolves its ``critical_fn`` here, so a missing provider means
    :func:`default_cache` everywhere.
    """
    return critical_fn or _DEFAULT_CACHE.critical_tuples
