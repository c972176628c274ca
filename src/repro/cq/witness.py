"""Which facts of ``tup(D)`` a query can touch: the one place that enumerates them.

Three sets nest, each inside the next:

1. A critical tuple (Definition 4.4) of a monotone query lies in a
   ⊆-minimal witness of some answer row: removing it from that witness
   loses the row.
2. A witness on ``tup(D)`` grounds the body under a satisfying
   assignment, so it is made of subgoal images
   (:func:`candidate_critical_facts`, the pool every criticality engine
   scans).  Per answer row the witnesses are the row's lineage (Koch &
   Olteanu, *Conditioning Probabilistic Databases*), which
   :func:`compile_query_table` collects as masks over an ordered support.
3. A subgoal image over ``R`` lies in ``R``'s slice of ``tup(D)``, so
   the slices of the mentioned relations (:func:`query_support`, built
   once per (schema, domain) by
   :func:`~repro.relational.tuples.relation_slice`) hold every fact the
   answer can depend on; the exact kernel sums Eq. (2) over their
   sub-instances.

A *mask table* is one ``int`` whose bit ``m`` is a property's value on
the sub-instance with mask ``m`` (bit ``j`` of ``m``: ``facts[j]`` is
present), so big-int ``&``/``|``/``^`` evaluate it on all sub-instances
at once.  A row is in ``Q``'s answer on ``m`` iff one of its witness
masks ``w`` has ``w ⊆ m``: one subset zeta transform, ``O(n·2^n)`` bit
operations instead of ``2^n`` backtracking searches.  Splitting the
masks by every query's answer set (:func:`answer_classes`) gives the
classes the kernel's Eq. (2) distributions sum over and the ones
answerability (:func:`~repro.cq.containment.determines`) compares.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..relational.domain import Domain
from ..relational.instance import Instance
from ..relational.schema import Schema
from ..relational.tuples import Fact, _tuple_space_set, relation_slice
from .atoms import Atom
from .evaluation import answer_tuple, satisfying_assignments
from .query import ConjunctiveQuery
from .terms import Variable, is_constant

__all__ = [
    "query_support",
    "candidate_critical_facts",
    "CompiledQueryTable",
    "compile_query_table",
    "answer_classes",
    "subset_zeta",
    "bit_clear_pattern",
    "universe_mask",
]


def query_support(query: ConjunctiveQuery, schema: Schema) -> FrozenSet[Fact]:
    """All facts that could possibly influence the query's answer.

    The answer of a conjunctive query only depends on the facts of the
    relations it mentions, so the support is the union of those
    relations' slices of the tuple space over the schema's domain.
    """
    return frozenset().union(*(relation_slice(schema, name) for name in query.relation_names))


def _subgoal_groundings(
    atom: Atom, domain: Domain, allowed: FrozenSet[Fact]
) -> Iterator[Fact]:
    """All facts of ``tup(D)`` that are homomorphic images of one subgoal."""
    positions_by_variable: Dict[Variable, List[int]] = {}
    fixed: Dict[int, object] = {}
    for index, term in enumerate(atom.terms):
        if is_constant(term):
            fixed[index] = term.value
        else:
            positions_by_variable.setdefault(term, []).append(index)
    variables = sorted(positions_by_variable)
    for combo in itertools.product(domain.values, repeat=len(variables)):
        values: List[object] = [None] * atom.arity
        for index, value in fixed.items():
            values[index] = value
        for variable, value in zip(variables, combo):
            for index in positions_by_variable[variable]:
                values[index] = value
        fact = Fact(atom.relation, values)
        if fact in allowed:
            yield fact


def candidate_critical_facts(
    query: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
) -> FrozenSet[Fact]:
    """Facts that are homomorphic images of some subgoal of the query.

    Every critical tuple must be such an image (a minimal witnessing
    instance is an image of the body), so this set is a superset of
    ``crit_D(Q)`` and is the candidate pool every engine scans.  The
    converse fails in general — the paper's example
    ``Q():-R(x,y,z,z,u),R(x,x,x,y,y)`` has the non-critical image
    ``R(a,a,b,b,c)`` — which is exactly why each candidate still needs
    the full witness check.
    """
    domain = domain or schema.domain
    allowed = _tuple_space_set(schema, domain)
    candidates: Set[Fact] = set()
    for atom in query.body:
        candidates.update(_subgoal_groundings(atom, domain, allowed))
    return frozenset(candidates)


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
    each witness set into the full ``2^n``-entry membership table.  Its
    ``true_bits`` is boolean truth on every subset, with the semantics of
    :func:`~repro.cq.evaluation.evaluate_boolean` (a non-boolean query is
    "true" when its answer is non-empty).
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


def answer_classes(
    tables: Sequence[CompiledQueryTable], universe: int
) -> List[Tuple[int, Tuple[FrozenSet[Tuple[object, ...]], ...]]]:
    """Split the masks of ``universe`` by every table's answer set.

    Returns ``(mask table, key)`` pairs where ``key`` lists, in table
    order, the answer set each query has on every mask of the class.  The
    classes partition the set bits of ``universe``, so two sub-instances
    share a class iff every query answers alike on them: the kernel sums
    a class's mass for Eq. (2), and :func:`~repro.cq.containment.determines`
    checks that the secret's answer is constant on each class.
    """
    classes: List[Tuple[int, Tuple]] = [(universe, ())]
    for table in tables:
        split: List[Tuple[int, Tuple, set]] = [
            (bits, key, set()) for bits, key in classes
        ]
        for row in table.answers:
            row_bits = table.row_tables[row]
            next_split: List[Tuple[int, Tuple, set]] = []
            for bits, key, included in split:
                with_row = bits & row_bits
                without_row = bits & ~row_bits
                if with_row:
                    next_split.append((with_row, key, included | {row}))
                if without_row:
                    next_split.append((without_row, key, included))
            split = next_split
        classes = [
            (bits, key + (frozenset(included),)) for bits, key, included in split
        ]
    return classes
