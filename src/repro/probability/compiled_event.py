"""Bitset compilation of events over a fixed support.

An event compiles to a *mask table* over a support, as a query does in
:mod:`repro.cq.witness`: one Python ``int`` whose bit ``m`` is the
event's value on the sub-instance with mask ``m``.  Query tests read the
query's :class:`~repro.cq.witness.CompiledQueryTable`, fact tests are
periodic bit patterns, ``And``/``Or``/``Not`` are bit algebra over their
children, and only opaque :class:`PredicateEvent` predicates fall back
to a per-mask evaluation loop.

The functions here are purely combinatorial (no probabilities).  A
compiled table is a function of the event's content and of the support
alone, and :func:`event_key` names that content, so the
:mod:`~repro.probability.kernel` can key its one memo table per
dictionary by it; the kernel layers mass computation, component
factorization and that table on top.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence, Tuple

from ..cq.canonical import canonical_query_key
from ..cq.witness import CompiledQueryTable, bit_clear_pattern, universe_mask
from ..exceptions import ProbabilityError
from ..relational.instance import Instance
from ..relational.tuples import Fact
from .events import (
    And,
    Event,
    FactAbsent,
    FactPresent,
    Not,
    Or,
    QueryAnswerIs,
    QueryContains,
    QueryTrue,
)

__all__ = ["compile_event_bits", "event_key"]


def compile_event_bits(
    event: Event,
    facts: Sequence[Fact],
    table_of: Callable[[object], CompiledQueryTable],
) -> int:
    """Mask table of ``event`` over the given support.

    ``table_of`` supplies (and typically memoizes) the compiled table of
    a query; the kernel injects its per-dictionary cache here so one
    query compiled for several events is only enumerated once.  Events
    without a structural form (:class:`PredicateEvent`, third-party
    subclasses) fall back to a per-mask evaluation loop, which is the
    seed behaviour.
    """
    facts = tuple(facts)
    n = len(facts)
    universe = universe_mask(n)
    if isinstance(event, QueryAnswerIs):
        return table_of(event.query).answer_is_bits(event.answer)
    if isinstance(event, QueryContains):
        return table_of(event.query).contains_bits(event.rows)
    if isinstance(event, QueryTrue):
        return table_of(event.query).true_bits
    if isinstance(event, FactPresent):
        j = _bit_index(event.fact, facts)
        return universe ^ bit_clear_pattern(n, j)
    if isinstance(event, FactAbsent):
        j = _bit_index(event.fact, facts)
        return bit_clear_pattern(n, j) & universe
    if isinstance(event, And):
        bits = universe
        for child in event.events:
            bits &= compile_event_bits(child, facts, table_of)
            if not bits:
                break
        return bits
    if isinstance(event, Or):
        bits = 0
        for child in event.events:
            bits |= compile_event_bits(child, facts, table_of)
            if bits == universe:
                break
        return bits
    if isinstance(event, Not):
        return universe ^ compile_event_bits(event.event, facts, table_of)
    return _predicate_bits(event, facts)


def _bit_index(fact: Fact, facts: Tuple[Fact, ...]) -> int:
    try:
        return facts.index(fact)
    except ValueError:
        raise ProbabilityError(
            f"event references fact {fact!r} outside the compiled support"
        ) from None


def event_key(event: Event) -> Optional[Hashable]:
    """The content key of a structural event, or ``None`` for an opaque one.

    Structural events (query tests, fact tests, boolean combinations of
    them) compile to bit algebra, and their mask table over a support is
    a function of what they say: the canonical form of each query, the
    rows or answer tested, the facts.  Two events with one key have one
    mask table, so the kernel memoizes by this key.  A
    :class:`PredicateEvent` or any third-party :class:`Event` subclass —
    anywhere in the event — has no such content: the key is ``None``,
    its mask table is not memoized, and its cost stays the seed's ``2^n``
    evaluation loop, which the kernel bounds more conservatively.
    """
    if isinstance(event, QueryAnswerIs):
        return ("answer-is", canonical_query_key(event.query), event.answer)
    if isinstance(event, QueryContains):
        return ("contains", canonical_query_key(event.query), event.rows)
    if isinstance(event, QueryTrue):
        return ("true", canonical_query_key(event.query))
    if isinstance(event, FactPresent):
        return ("present", event.fact)
    if isinstance(event, FactAbsent):
        return ("absent", event.fact)
    if isinstance(event, (And, Or)):
        children = tuple(event_key(child) for child in event.events)
        if None in children:
            return None
        return ("and" if isinstance(event, And) else "or", children)
    if isinstance(event, Not):
        child = event_key(event.event)
        return None if child is None else ("not", child)
    return None


def _predicate_bits(event: Event, facts: Tuple[Fact, ...]) -> int:
    """Per-mask fallback for opaque predicates (prior knowledge ``K``)."""
    bits = 0
    n = len(facts)
    for mask in range(1 << n):
        subset = Instance(facts[j] for j in range(n) if mask >> j & 1)
        if event.occurs(subset):
            bits |= 1 << mask
    return bits
