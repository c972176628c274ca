"""Events over random database instances.

An :class:`Event` is a boolean predicate on instances together with a
*support*: a set of facts such that the event's truth value only depends
on which of those facts are present.  Declaring the support lets the
exact engine enumerate only ``2^|support|`` sub-instances instead of the
full ``inst(D)``; events whose support is unknown fall back to the whole
tuple space.  A query event's support is
:func:`~repro.cq.witness.query_support`.

The events needed by the paper are provided:

* ``S(I) = s``                      — :class:`QueryAnswerIs` (Definition 4.1)
* ``s ⊆ S(I)``                      — :class:`QueryContains` (monotone, Section 6.1)
* boolean query truth               — :class:`QueryTrue`
* presence / absence of one fact    — :class:`FactPresent` / :class:`FactAbsent`
* boolean combinations              — :class:`And`, :class:`Or`, :class:`Not`
* arbitrary predicates              — :class:`PredicateEvent` (prior knowledge ``K``)
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..cq.evaluation import evaluate, evaluate_boolean
from ..cq.query import ConjunctiveQuery
from ..cq.witness import query_support
from ..relational.instance import Instance
from ..relational.schema import Schema
from ..relational.tuples import Fact

__all__ = [
    "Event",
    "QueryAnswerIs",
    "QueryContains",
    "QueryTrue",
    "FactPresent",
    "FactAbsent",
    "And",
    "Or",
    "Not",
    "PredicateEvent",
    "views_answer_event",
]


class Event:
    """Base class for events: a predicate on instances plus a support."""

    def occurs(self, instance: Instance) -> bool:
        """Whether the event holds on the given instance."""
        raise NotImplementedError

    def support(self, schema: Schema) -> Optional[FrozenSet[Fact]]:
        """Facts the event depends on, or ``None`` when unknown (whole space)."""
        return None

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return repr(self)

    # -- boolean algebra -------------------------------------------------------
    def __and__(self, other: "Event") -> "Event":
        return And((self, other))

    def __or__(self, other: "Event") -> "Event":
        return Or((self, other))

    def __invert__(self) -> "Event":
        return Not(self)


class QueryAnswerIs(Event):
    """The event ``Q(I) = answer`` for a specific answer set."""

    def __init__(self, query: ConjunctiveQuery, answer: Iterable[Tuple[object, ...]]):
        self.query = query
        self.answer = frozenset(tuple(row) for row in answer)

    def occurs(self, instance: Instance) -> bool:
        return evaluate(self.query, instance) == self.answer

    def support(self, schema: Schema) -> FrozenSet[Fact]:
        return query_support(self.query, schema)

    def describe(self) -> str:
        rows = sorted(self.answer, key=repr)
        return f"{self.query.name}(I) = {{{', '.join(map(repr, rows))}}}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryAnswerIs({self.query.name}, {sorted(self.answer, key=repr)})"


class QueryContains(Event):
    """The monotone event ``rows ⊆ Q(I)`` (Section 6.1's atomic statements)."""

    def __init__(self, query: ConjunctiveQuery, rows: Iterable[Tuple[object, ...]]):
        self.query = query
        self.rows = frozenset(tuple(row) for row in rows)

    def occurs(self, instance: Instance) -> bool:
        return self.rows <= evaluate(self.query, instance)

    def support(self, schema: Schema) -> FrozenSet[Fact]:
        return query_support(self.query, schema)

    def describe(self) -> str:
        rows = sorted(self.rows, key=repr)
        return f"{{{', '.join(map(repr, rows))}}} ⊆ {self.query.name}(I)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryContains({self.query.name}, {sorted(self.rows, key=repr)})"


class QueryTrue(Event):
    """The event 'the (boolean) query is true on the instance'."""

    def __init__(self, query: ConjunctiveQuery):
        self.query = query

    def occurs(self, instance: Instance) -> bool:
        return evaluate_boolean(self.query, instance)

    def support(self, schema: Schema) -> FrozenSet[Fact]:
        return query_support(self.query, schema)

    def describe(self) -> str:
        return f"{self.query.name}(I) is true"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryTrue({self.query.name})"


class FactPresent(Event):
    """The event ``t ∈ I`` for one fact."""

    def __init__(self, fact: Fact):
        self.fact = fact

    def occurs(self, instance: Instance) -> bool:
        return self.fact in instance

    def support(self, schema: Schema) -> FrozenSet[Fact]:
        return frozenset({self.fact})

    def describe(self) -> str:
        return f"{self.fact!r} ∈ I"


class FactAbsent(Event):
    """The event ``t ∉ I`` for one fact."""

    def __init__(self, fact: Fact):
        self.fact = fact

    def occurs(self, instance: Instance) -> bool:
        return self.fact not in instance

    def support(self, schema: Schema) -> FrozenSet[Fact]:
        return frozenset({self.fact})

    def describe(self) -> str:
        return f"{self.fact!r} ∉ I"


class And(Event):
    """Conjunction of several events."""

    def __init__(self, events: Sequence[Event]):
        self.events = tuple(events)

    def occurs(self, instance: Instance) -> bool:
        return all(event.occurs(instance) for event in self.events)

    def support(self, schema: Schema) -> Optional[FrozenSet[Fact]]:
        return _union_support(self.events, schema)

    def describe(self) -> str:
        return " ∧ ".join(f"({e.describe()})" for e in self.events)


class Or(Event):
    """Disjunction of several events."""

    def __init__(self, events: Sequence[Event]):
        self.events = tuple(events)

    def occurs(self, instance: Instance) -> bool:
        return any(event.occurs(instance) for event in self.events)

    def support(self, schema: Schema) -> Optional[FrozenSet[Fact]]:
        return _union_support(self.events, schema)

    def describe(self) -> str:
        return " ∨ ".join(f"({e.describe()})" for e in self.events)


class Not(Event):
    """Negation of an event."""

    def __init__(self, event: Event):
        self.event = event

    def occurs(self, instance: Instance) -> bool:
        return not self.event.occurs(instance)

    def support(self, schema: Schema) -> Optional[FrozenSet[Fact]]:
        return self.event.support(schema)

    def describe(self) -> str:
        return f"¬({self.event.describe()})"


class PredicateEvent(Event):
    """An event defined by an arbitrary predicate on instances.

    Used for prior knowledge ``K`` that is not expressible as a
    conjunctive query (key constraints, cardinality constraints, ...).
    A support may be supplied when known; otherwise the engine
    enumerates the full tuple space.
    """

    def __init__(
        self,
        predicate: Callable[[Instance], bool],
        description: str = "K",
        support: Optional[Iterable[Fact]] = None,
    ):
        self._predicate = predicate
        self._description = description
        self._support = frozenset(support) if support is not None else None

    def occurs(self, instance: Instance) -> bool:
        return self._predicate(instance)

    def support(self, schema: Schema) -> Optional[FrozenSet[Fact]]:
        return self._support

    def describe(self) -> str:
        return self._description


def _union_support(events: Sequence[Event], schema: Schema) -> Optional[FrozenSet[Fact]]:
    supports = [event.support(schema) for event in events]
    if any(s is None for s in supports):
        return None
    result: set[Fact] = set()
    for s in supports:
        result |= s  # type: ignore[arg-type]
    return frozenset(result)


def views_answer_event(
    views: Sequence[ConjunctiveQuery],
    answers: Sequence[Iterable[Tuple[object, ...]]],
) -> Event:
    """The event ``V̄(I) = v̄``: every view attains its designated answer."""
    if len(views) != len(answers):
        raise ValueError("views and answers must have the same length")
    return And(tuple(QueryAnswerIs(v, a) for v, a in zip(views, answers)))
