"""The seed backtracking evaluator, kept as the evaluation oracle.

It scans every fact of the matching relation per subgoal, in body
order, extending one shared assignment dict in place.  The compiled and
sql engines of :mod:`repro.cq.evaluation` must agree with it on every
query; the ablation benchmarks time it as the baseline.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..cq.atoms import Atom, Comparison
from ..cq.evaluation import answer_tuple
from ..cq.query import ConjunctiveQuery
from ..cq.terms import Variable, is_constant
from ..relational.instance import Instance
from ..relational.tuples import Fact

__all__ = [
    "naive_evaluate",
    "naive_evaluate_boolean",
    "naive_satisfying_assignments",
]

Assignment = Dict[Variable, object]


class _Unbound:
    """Sentinel distinguishing 'unbound' from a bound ``None`` value."""

    __repr__ = lambda self: "<unbound>"  # noqa: E731  # pragma: no cover


_UNBOUND = _Unbound()


def _match_atom(
    atom: Atom, fact: Fact, assignment: Assignment
) -> Optional[List[Variable]]:
    """Extend the shared ``assignment`` in place so ``atom`` maps onto ``fact``.

    Returns the list of variables newly bound by this match — the caller
    deletes them once the branch is exhausted — or ``None`` when the
    match fails (partial bindings are undone before returning).  The
    seed copied the whole dict per candidate fact; extend/undo keeps the
    ablation baseline honest about *algorithmic* cost, not dict churn.
    """
    if atom.relation != fact.relation or atom.arity != fact.arity:
        return None
    bound_here: List[Variable] = []
    for term, value in zip(atom.terms, fact.values):
        if is_constant(term):
            if term.value == value:
                continue
        else:
            bound = assignment.get(term, _UNBOUND)
            if bound is _UNBOUND:
                assignment[term] = value
                bound_here.append(term)
                continue
            if bound == value:
                continue
        for variable in bound_here:
            del assignment[variable]
        return None
    return bound_here


def _comparisons_consistent(
    comparisons: Sequence[Comparison], assignment: Assignment
) -> bool:
    """Check every comparison whose variables are all bound."""
    for comparison in comparisons:
        if all(v in assignment for v in comparison.variables):
            if not comparison.evaluate(assignment):
                return False
    return True


def naive_satisfying_assignments(
    query: ConjunctiveQuery, instance: Instance
) -> Iterator[Assignment]:
    """The seed backtracking enumeration (body order, full relation scans).

    Yields every assignment of the query's variables that satisfies it,
    total over the body variables.  Comparisons are verified
    incrementally (as soon as both sides are bound) and re-verified once
    the assignment is total, which also covers comparisons between two
    constants.  For a :class:`~repro.cq.union.UnionQuery` the
    assignments of every disjunct are yielded in turn.
    """
    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        for disjunct in disjuncts:
            yield from naive_satisfying_assignments(disjunct, instance)
        return
    body = list(query.body)
    comparisons = list(query.comparisons)
    assignment: Assignment = {}

    def extend(index: int) -> Iterator[Assignment]:
        if index == len(body):
            if _comparisons_consistent(comparisons, assignment) and all(
                comparison.evaluate(assignment)
                for comparison in comparisons
                if not comparison.variables
            ):
                yield dict(assignment)
            return
        atom = body[index]
        for fact in instance.relation(atom.relation):
            bound_here = _match_atom(atom, fact, assignment)
            if bound_here is None:
                continue
            if _comparisons_consistent(comparisons, assignment):
                yield from extend(index + 1)
            for variable in bound_here:
                del assignment[variable]

    yield from extend(0)


def naive_evaluate(
    query: ConjunctiveQuery, instance: Instance
) -> FrozenSet[Tuple[object, ...]]:
    """Evaluate with the seed backtracking engine (set semantics)."""
    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        answers: set = set()
        for disjunct in disjuncts:
            answers |= naive_evaluate(disjunct, instance)
        return frozenset(answers)
    answers = set()
    for assignment in naive_satisfying_assignments(query, instance):
        answers.add(answer_tuple(query, assignment))
    return frozenset(answers)


def naive_evaluate_boolean(query: ConjunctiveQuery, instance: Instance) -> bool:
    """Boolean evaluation with the seed backtracking engine."""
    for _ in naive_satisfying_assignments(query, instance):
        return True
    return False
