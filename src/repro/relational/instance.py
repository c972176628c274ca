"""Database instances and the instance space ``inst(D)``.

An :class:`Instance` is an immutable set of :class:`~repro.relational.tuples.Fact`
objects — exactly the paper's notion of a database instance (any subset
of ``tup(D)``).  :func:`enumerate_instances` enumerates ``inst(D)``, the
powerset of the tuple space, which is the sample space of the
probabilistic model; because it has size ``2^|tup(D)|`` callers should
bound the tuple space first (see
:class:`~repro.exceptions.IntractableAnalysisError`).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import IntractableAnalysisError
from ..obs.counters import StatCounters
from .domain import Domain
from .schema import Schema
from .tuples import Fact, tuple_space

__all__ = [
    "Instance",
    "INDEX_STATS",
    "enumerate_instances",
    "instance_space_size",
    "satisfies_key_constraints",
]

#: Default guard on the size of an exhaustively enumerated instance space.
MAX_ENUMERABLE_TUPLES = 24

#: Process-wide counters for the lazy per-instance hash indexes (monotone;
#: surfaced through :func:`repro.cq.compiled.evaluation_stats`).  A
#: :class:`~repro.obs.counters.StatCounters`: bumped through ``.bump()``
#: so counts survive concurrent evaluation on worker threads.
INDEX_STATS = StatCounters(("builds", "reuses", "patched"))


class Instance:
    """An immutable database instance (a set of facts)."""

    __slots__ = ("_facts", "_by_relation", "_indexes")

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: FrozenSet[Fact] = frozenset(facts)
        self._by_relation: dict[str, FrozenSet[Fact]] = {}
        self._indexes: dict[
            Tuple[str, Tuple[int, ...]], Dict[Tuple[object, ...], Tuple[Fact, ...]]
        ] = {}

    def __getstate__(self) -> FrozenSet[Fact]:
        # Only the facts are pickled; the caches are rebuilt on demand.
        return self._facts

    def __setstate__(self, facts: FrozenSet[Fact]) -> None:
        self.__init__(facts)

    # -- construction ---------------------------------------------------------
    @classmethod
    def of(cls, *facts: Fact) -> "Instance":
        """Build an instance from positional facts."""
        return cls(facts)

    @classmethod
    def empty(cls) -> "Instance":
        """The empty instance."""
        return cls()

    # -- set protocol ---------------------------------------------------------
    @property
    def facts(self) -> FrozenSet[Fact]:
        """The facts of the instance as a frozenset."""
        return self._facts

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts))

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            return self._facts == other._facts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._facts)

    def __le__(self, other: "Instance") -> bool:
        return self._facts <= other._facts

    # -- operations -----------------------------------------------------------
    def relation(self, name: str) -> FrozenSet[Fact]:
        """All facts of one relation (cached per instance)."""
        cached = self._by_relation.get(name)
        if cached is None:
            cached = frozenset(f for f in self._facts if f.relation == name)
            self._by_relation[name] = cached
        return cached

    def index(
        self, relation: str, positions: Sequence[int]
    ) -> Mapping[Tuple[object, ...], Tuple[Fact, ...]]:
        """Hash index of one relation keyed by the values at ``positions``.

        Instances are immutable, so the index is computed lazily once and
        cached for the lifetime of the instance; every compiled query
        plan probing the same ``(relation, positions)`` pair shares it
        (a benign double build may happen under concurrent first use).
        Facts whose arity does not cover every indexed position are
        omitted — they can never match an atom probing those positions.
        """
        positions = tuple(positions)
        key = (relation, positions)
        cached = self._indexes.get(key)
        if cached is not None:
            INDEX_STATS.bump("reuses")
            return cached
        buckets: Dict[Tuple[object, ...], List[Fact]] = {}
        top = max(positions) if positions else -1
        for fact in self.relation(relation):
            values = fact.values
            if top >= len(values):
                continue
            buckets.setdefault(
                tuple(values[p] for p in positions), []
            ).append(fact)
        index = {k: tuple(v) for k, v in buckets.items()}
        self._indexes[key] = index
        INDEX_STATS.bump("builds")
        return index

    def add(self, *facts: Fact) -> "Instance":
        """A new instance with the given facts added.

        A single-fact delta inherits the parent's already-built caches:
        per-relation frozensets and hash indexes are *patched* around
        the one changed fact instead of being rebuilt lazily from
        scratch by the derived instance (counted as ``patched`` in
        :data:`INDEX_STATS`).
        """
        child = Instance(self._facts | set(facts))
        if len(facts) == 1:
            if facts[0] in self._facts:
                self._share_caches(child)
            else:
                self._inherit_caches(child, facts[0], added=True)
        return child

    def remove(self, *facts: Fact) -> "Instance":
        """A new instance with the given facts removed (missing facts are
        ignored).  Single-fact deltas patch the parent's caches forward;
        see :meth:`add`."""
        child = Instance(self._facts - set(facts))
        if len(facts) == 1:
            if facts[0] in self._facts:
                self._inherit_caches(child, facts[0], added=False)
            else:
                self._share_caches(child)
        return child

    def _share_caches(self, child: "Instance") -> None:
        """Alias the caches into a child holding the *same* fact set.

        Safe because both instances are immutable views of one fact
        set: lazy fills through either alias stay correct for both.
        """
        child._by_relation = self._by_relation
        child._indexes = self._indexes

    def _inherit_caches(self, child: "Instance", fact: Fact, added: bool) -> None:
        """Patch this instance's built caches into a single-fact child.

        Caches of relations the fact does not touch are shared
        verbatim; the touched relation's entries are shallow-copied
        with only the one affected index bucket adjusted.  Each index
        carried forward counts as one ``patched`` in
        :data:`INDEX_STATS`.
        """
        relation, values = fact.relation, fact.values
        for name, cached in self._by_relation.items():
            if name != relation:
                child._by_relation[name] = cached
            elif added:
                child._by_relation[name] = cached | {fact}
            else:
                child._by_relation[name] = cached - {fact}
        patched = 0
        for key, index in self._indexes.items():
            name, positions = key
            top = max(positions) if positions else -1
            if name != relation or top >= len(values):
                # The fact cannot appear in this index: share verbatim.
                child._indexes[key] = index
            else:
                bucket_key = tuple(values[p] for p in positions)
                updated = dict(index)
                bucket = updated.get(bucket_key, ())
                if added:
                    updated[bucket_key] = bucket + (fact,)
                else:
                    remaining = tuple(f for f in bucket if f != fact)
                    if remaining:
                        updated[bucket_key] = remaining
                    else:
                        updated.pop(bucket_key, None)
                child._indexes[key] = updated
            patched += 1
        if patched:
            INDEX_STATS.bump("patched", patched)

    def union(self, other: "Instance") -> "Instance":
        """Union of two instances."""
        return Instance(self._facts | other._facts)

    def intersection(self, other: "Instance") -> "Instance":
        """Intersection of two instances."""
        return Instance(self._facts & other._facts)

    def difference(self, other: "Instance") -> "Instance":
        """Facts of this instance that are not in ``other``."""
        return Instance(self._facts - other._facts)

    def restrict_to(self, facts: Iterable[Fact]) -> "Instance":
        """The sub-instance containing only the given facts."""
        return Instance(self._facts & set(facts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(f) for f in sorted(self._facts))
        return f"Instance({{{inner}}})"


def instance_space_size(schema: Schema, domain: Optional[Domain] = None) -> int:
    """Number of instances in ``inst(D)`` (``2^|tup(D)|``)."""
    from .tuples import tuple_space_size

    return 2 ** tuple_space_size(schema, domain)


def enumerate_instances(
    schema: Schema,
    domain: Optional[Domain] = None,
    over_facts: Optional[Sequence[Fact]] = None,
    max_tuples: int = MAX_ENUMERABLE_TUPLES,
) -> Iterator[Instance]:
    """Enumerate ``inst(D)``: every subset of the tuple space.

    Parameters
    ----------
    schema, domain:
        Define the tuple space when ``over_facts`` is not given.
    over_facts:
        Enumerate subsets of this explicit list of facts instead of the
        whole tuple space (useful when a query only depends on a small
        set of facts).
    max_tuples:
        Guard against accidental exponential blow-up; raise
        :class:`IntractableAnalysisError` when the tuple space is larger.
    """
    facts: List[Fact] = (
        list(over_facts) if over_facts is not None else tuple_space(schema, domain)
    )
    if len(facts) > max_tuples:
        raise IntractableAnalysisError(
            f"cannot enumerate 2^{len(facts)} instances; "
            f"restrict the domain or use sampling",
            size_estimate=2 ** len(facts),
        )
    for r in range(len(facts) + 1):
        for combo in itertools.combinations(facts, r):
            yield Instance(combo)


def satisfies_key_constraints(schema: Schema, instance: Instance) -> bool:
    """Check whether an instance satisfies every declared key constraint."""
    for relation in schema:
        positions = relation.key_positions()
        if not positions:
            continue
        seen: dict[Tuple[object, ...], Fact] = {}
        for fact in instance.relation(relation.name):
            key_value = fact.project(positions)
            other = seen.get(key_value)
            if other is not None and other != fact:
                return False
            seen[key_value] = fact
    return True
