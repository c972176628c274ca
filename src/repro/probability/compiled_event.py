"""Bitset compilation of queries and events over a fixed support.

The exact engine answers questions of the form "what does ``Q`` (or an
event) do on *every* subset of a support ``{t_0, ..., t_{n-1}}``".  The
seed implementation re-ran a backtracking homomorphism search on each of
the ``2^n`` sub-instances; this module compiles the question **once**
against the full support and derives all ``2^n`` answers with bit
operations, in the lineage / knowledge-compilation style of
probabilistic-database engines:

1. Sub-instances are identified with *masks*: bit ``j`` of ``m`` means
   ``facts[j]`` is present.  A boolean property of sub-instances is a
   *mask table* — a single Python ``int`` with ``2^n`` bits whose bit
   ``m`` is the property's value on mask ``m``.  Big-int ``&``/``|``/
   ``^`` then evaluate the property on all sub-instances at once.
2. Each satisfying assignment of ``Q`` on the **full** support grounds
   the body into a *witness mask* ``w`` and produces one answer row
   ``a``; the row is in ``Q``'s answer on mask ``m`` iff ``w ⊆ m`` for
   some witness of ``a``.  The set ``{m : ∃w ⊆ m}`` is the superset
   closure of the witness masks, computed for all masks simultaneously
   by a subset zeta (sum-over-subsets) transform in ``O(n·2^n)`` bit
   operations — instead of ``2^n`` independent backtracking searches.
3. Composite events (:class:`~repro.probability.events.And`, ``Or``,
   ``Not``, answer/containment tests) reduce to bit algebra over the
   per-row tables; only opaque :class:`PredicateEvent` predicates fall
   back to a per-mask evaluation loop.

The functions here are purely combinatorial (no probabilities).  A
compiled table is a function of the query's or event's content and of
the support alone, and :func:`event_key` names that content, so the
:mod:`~repro.probability.kernel` can key its one memo table per
dictionary by it; the kernel layers mass computation, component
factorization and that table on top.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, Optional, Sequence, Tuple

from ..cq.canonical import canonical_query_key
from ..cq.evaluation import answer_tuple, satisfying_assignments
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

__all__ = [
    "CompiledQueryTable",
    "compile_query_table",
    "query_truth_bits",
    "compile_event_bits",
    "event_key",
    "subset_zeta",
    "bit_clear_pattern",
    "universe_mask",
]

#: Cache of the periodic "bit j of the mask is clear" patterns, keyed by
#: ``(n, j)``.  These are pure functions of the support size, shared by
#: every compilation in the process.  Only supports up to
#: ``_PATTERN_CACHE_MAX_N`` are cached (a few MB in total); larger
#: patterns are rebuilt per call — construction is ``O(n)`` big-int ops,
#: negligible next to the zeta transform that consumes them — so the
#: cache cannot pin hundreds of MB for the process lifetime.
_CLEAR_PATTERNS: Dict[Tuple[int, int], int] = {}
_PATTERN_CACHE_MAX_N = 20


def universe_mask(n: int) -> int:
    """The all-ones mask table over ``2^n`` sub-instances."""
    return (1 << (1 << n)) - 1


def bit_clear_pattern(n: int, j: int) -> int:
    """Mask table of the property "bit ``j`` of the mask is clear".

    Viewed over the ``2^n`` mask positions this is the periodic pattern
    ``2^j`` ones / ``2^j`` zeros, built by doubling (``O(n)`` big-int
    ops) and cached process-wide for small supports.
    """
    key = (n, j)
    cached = _CLEAR_PATTERNS.get(key)
    if cached is None:
        size = 1 << n
        pattern = (1 << (1 << j)) - 1
        width = 1 << (j + 1)
        while width < size:
            pattern |= pattern << width
            width <<= 1
        if n <= _PATTERN_CACHE_MAX_N:
            _CLEAR_PATTERNS[key] = pattern
        cached = pattern
    return cached


def subset_zeta(bits: int, n: int) -> int:
    """Superset closure: output bit ``m`` = OR of input bits over ``w ⊆ m``.

    The classic sum-over-subsets transform, vectorised over all masks:
    processing bit ``j`` ORs every position with bit ``j`` clear into its
    bit-``j``-set sibling via one shift.  ``O(n)`` big-int operations on
    ``2^n``-bit integers.
    """
    for j in range(n):
        bits |= (bits & bit_clear_pattern(n, j)) << (1 << j)
    return bits


# ---------------------------------------------------------------------------
# Query compilation
# ---------------------------------------------------------------------------
class CompiledQueryTable:
    """A query compiled against one ordered support.

    Attributes
    ----------
    facts:
        The ordered support; bit ``j`` of a mask means ``facts[j]``.
    answers:
        Every answer row the query attains on *some* sub-instance (i.e.
        its answer on the full support), in deterministic order.
    row_tables:
        Per answer row ``a``, the mask table of ``a ∈ Q(m)``.
    true_bits:
        Mask table of ``Q(m) ≠ ∅`` (boolean truth for arity-0 queries).
    """

    __slots__ = ("facts", "answers", "row_tables", "true_bits")

    def __init__(
        self,
        facts: Tuple[Fact, ...],
        answers: Tuple[Tuple[object, ...], ...],
        row_tables: Dict[Tuple[object, ...], int],
        true_bits: int,
    ):
        self.facts = facts
        self.answers = answers
        self.row_tables = row_tables
        self.true_bits = true_bits

    def answer_is_bits(self, answer: Sequence[Tuple[object, ...]]) -> int:
        """Mask table of the event ``Q(m) = answer`` (Definition 4.1 events)."""
        n = len(self.facts)
        wanted = frozenset(tuple(row) for row in answer)
        if not wanted <= frozenset(self.answers):
            return 0  # contains a row the query can never produce
        universe = universe_mask(n)
        bits = universe
        for row in self.answers:
            table = self.row_tables[row]
            bits &= table if row in wanted else (table ^ universe)
            if not bits:
                break
        return bits

    def contains_bits(self, rows: Sequence[Tuple[object, ...]]) -> int:
        """Mask table of the monotone event ``rows ⊆ Q(m)``."""
        wanted = frozenset(tuple(row) for row in rows)
        if not wanted <= frozenset(self.answers):
            return 0
        bits = universe_mask(len(self.facts))
        for row in wanted:
            bits &= self.row_tables[row]
            if not bits:
                break
        return bits


def _witnesses(
    query, instance: Instance
) -> Iterator[Tuple[Tuple[object, ...], Tuple[Fact, ...]]]:
    """Yield ``(answer row, grounded body facts)`` per satisfying assignment.

    Unions are flattened so the head of the *matching disjunct* produces
    the answer row.
    """
    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        for disjunct in disjuncts:
            yield from _witnesses(disjunct, instance)
        return
    body = query.body
    for assignment in satisfying_assignments(query, instance):
        grounded = tuple(atom.ground(assignment) for atom in body)
        yield answer_tuple(query, assignment), grounded


def compile_query_table(query, facts: Sequence[Fact]) -> CompiledQueryTable:
    """Compile ``Q`` against an ordered support into a :class:`CompiledQueryTable`.

    One satisfying-assignment enumeration on the full support collects,
    per answer row, the witness masks; a subset zeta transform then turns
    each witness set into the full ``2^n``-entry membership table.
    """
    facts = tuple(facts)
    n = len(facts)
    bit_of = {fact: j for j, fact in enumerate(facts)}
    witness_masks: Dict[Tuple[object, ...], int] = {}
    full = Instance(facts)
    for row, grounded in _witnesses(query, full):
        mask = 0
        for fact in grounded:
            mask |= 1 << bit_of[fact]
        witness_masks[row] = witness_masks.get(row, 0) | (1 << mask)
    row_tables = {
        row: subset_zeta(bits, n) for row, bits in witness_masks.items()
    }
    true_bits = 0
    for bits in row_tables.values():
        true_bits |= bits
    answers = tuple(sorted(row_tables, key=repr))
    return CompiledQueryTable(facts, answers, row_tables, true_bits)


def query_truth_bits(query, facts: Sequence[Fact]) -> int:
    """Mask table of boolean truth: bit ``m`` iff ``Q`` holds on subset ``m``.

    Semantics match :func:`repro.cq.evaluation.evaluate_boolean` (a
    non-boolean query is "true" when its answer is non-empty), but the
    cost is one enumeration plus ``O(n)`` big-int operations instead of
    ``2^n`` backtracking searches.
    """
    return compile_query_table(query, facts).true_bits


# ---------------------------------------------------------------------------
# Event compilation
# ---------------------------------------------------------------------------
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
