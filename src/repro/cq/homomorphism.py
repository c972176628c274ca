"""Homomorphisms between conjunctive queries and into instances.

A homomorphism from query ``Q1`` to query ``Q2`` maps the variables of
``Q1`` to terms of ``Q2`` such that every subgoal of ``Q1`` is mapped to
a subgoal of ``Q2`` and the head is preserved.  Homomorphisms are the
classical tool for conjunctive-query containment (``Q2 ⊆ Q1`` iff there
is a homomorphism ``Q1 → Q2``) and they underpin the critical-tuple
search (Appendix A restricts attention to *minimal* instances, which are
homomorphic images of the query body).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..relational.instance import Instance
from ..relational.tuples import Fact
from .atoms import Atom
from .query import ConjunctiveQuery
from .terms import Constant, Term, Variable, is_constant

__all__ = [
    "find_query_homomorphism",
    "has_query_homomorphism",
    "homomorphisms_into_instance",
    "has_homomorphism_into_instance",
    "canonical_instance",
]

TermMapping = Dict[Variable, Term]


def _extend_over_atom(
    source: Atom, target: Atom, mapping: TermMapping
) -> Optional[TermMapping]:
    """Extend ``mapping`` so that ``source`` maps exactly onto ``target``."""
    if source.relation != target.relation or source.arity != target.arity:
        return None
    extended = dict(mapping)
    for s_term, t_term in zip(source.terms, target.terms):
        if is_constant(s_term):
            if s_term != t_term:
                return None
            continue
        bound = extended.get(s_term)
        if bound is None:
            extended[s_term] = t_term
        elif bound != t_term:
            return None
    return extended


def find_query_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Optional[TermMapping]:
    """A homomorphism ``source → target`` preserving the head, if one exists.

    Head preservation means the i-th head term of ``source`` is mapped to
    the i-th head term of ``target``; both queries must have equal arity.
    """
    if source.arity != target.arity:
        return None

    # Seed the mapping with the head correspondence.
    seed: TermMapping = {}
    for s_term, t_term in zip(source.head, target.head):
        if is_constant(s_term):
            if s_term != t_term:
                return None
            continue
        bound = seed.get(s_term)
        if bound is None:
            seed[s_term] = t_term
        elif bound != t_term:
            return None

    body = list(source.body)
    targets = list(target.body)

    def extend(index: int, mapping: TermMapping) -> Optional[TermMapping]:
        if index == len(body):
            return mapping
        for target_atom in targets:
            extended = _extend_over_atom(body[index], target_atom, mapping)
            if extended is None:
                continue
            result = extend(index + 1, extended)
            if result is not None:
                return result
        return None

    return extend(0, seed)


def has_query_homomorphism(source: ConjunctiveQuery, target: ConjunctiveQuery) -> bool:
    """True when a head-preserving homomorphism ``source → target`` exists."""
    return find_query_homomorphism(source, target) is not None


def homomorphisms_into_instance(
    query: ConjunctiveQuery, instance: Instance
) -> Iterator[Dict[Variable, object]]:
    """All homomorphisms from the query body into an instance.

    Unlike :func:`repro.cq.evaluation.satisfying_assignments` this helper
    is head-agnostic; it is re-exported here for symmetry and used by the
    critical-tuple machinery.  Comparisons are honoured.

    The compiled evaluator explores the subgoals in the planner's greedy
    join order (:func:`repro.cq.plan.plan_atom_order`), so the
    enumeration cost does not depend on how the caller happened to
    spell the body.
    """
    from .evaluation import satisfying_assignments

    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        for disjunct in disjuncts:
            yield from homomorphisms_into_instance(disjunct, instance)
        return
    yield from satisfying_assignments(query, instance)


def has_homomorphism_into_instance(query: ConjunctiveQuery, instance: Instance) -> bool:
    """True when the query body maps into the instance (the query is 'true')."""
    for _ in homomorphisms_into_instance(query, instance):
        return True
    return False


def canonical_instance(
    query: ConjunctiveQuery, freeze_prefix: str = "frz_"
) -> Tuple[Instance, Dict[Variable, object]]:
    """The canonical (frozen) instance of a query.

    Every variable is replaced by a fresh constant; the resulting set of
    facts is the classical canonical database used for containment tests.
    Returns the instance together with the freezing assignment.
    """
    assignment: Dict[Variable, object] = {}
    for variable in sorted(query.variables):
        assignment[variable] = f"{freeze_prefix}{variable.name}"
    facts = [atom.ground(assignment) for atom in query.body]
    return Instance(facts), assignment
