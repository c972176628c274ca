"""The criticality-engine interface and the homomorphic-image helpers.

Every verdict this library produces — Theorem 4.5 security, collusion,
prior knowledge, leakage bounds, practical security — funnels through
the computation of critical-tuple sets ``crit_D(Q)`` (Definition 4.4).
:class:`CriticalityEngine` names that computation's interface; the
production engine is :class:`~repro.core.criticality.pruned.
PrunedParallelEngine`.

The helpers below decide which facts are homomorphic images of a
query's subgoals; matching one subgoal to one fact is
:func:`~repro.cq.unification.match_atom_to_fact`.  The production
engine and the reference oracles of :mod:`repro.reference` share them,
so the engines can never diverge on what counts as a candidate critical
tuple.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set

from ...cq.atoms import Atom
from ...cq.query import ConjunctiveQuery
from ...cq.terms import Variable, is_constant
from ...relational.domain import Domain
from ...relational.instance import Instance
from ...relational.schema import Schema
from ...relational.tuples import Fact, tuple_space

__all__ = [
    "InstanceConstraint",
    "DEFAULT_MAX_VALUATIONS",
    "CriticalityEngine",
    "candidate_critical_facts",
]

#: Predicate on instances used to relativise criticality (must be closed
#: under subsets for the minimal-instance search to remain complete).
InstanceConstraint = Callable[[Instance], bool]

#: Guard on the number of valuations explored per subgoal.
DEFAULT_MAX_VALUATIONS = 2_000_000


class CriticalityEngine:
    """Interface of a ``crit_D(Q)`` computation strategy.

    Subclasses implement :meth:`is_critical` and :meth:`critical_tuples`
    with the exact semantics of Definition 4.4 (relativised to an
    instance constraint when one is given).  A bound
    :meth:`critical_tuples` is a valid ``critical_fn`` provider for
    every core decision procedure.
    """

    def is_critical(
        self,
        fact: Fact,
        query,
        schema: Schema,
        domain: Optional[Domain] = None,
        constraint: Optional[InstanceConstraint] = None,
        max_valuations: int = DEFAULT_MAX_VALUATIONS,
    ) -> bool:
        """Decide ``fact ∈ crit_D(Q)`` (or ``crit_D(Q, K)``)."""
        raise NotImplementedError

    def critical_tuples(
        self,
        query,
        schema: Schema,
        domain: Optional[Domain] = None,
        constraint: Optional[InstanceConstraint] = None,
        max_valuations: int = DEFAULT_MAX_VALUATIONS,
    ) -> FrozenSet[Fact]:
        """``crit_D(Q)`` (or ``crit_D(Q, K)`` when a constraint is given)."""
        raise NotImplementedError


#: Attribute of a :class:`Schema` holding its tuple spaces by domain.
_TUPLE_SPACES_ATTRIBUTE = "_tuple_spaces"


def _tuple_space_set(schema: Schema, domain: Domain) -> FrozenSet[Fact]:
    """``tup(D)`` as a set, built once per (schema, domain) and kept on the schema.

    Schemas are immutable, so the set lives exactly as long as the
    schema does, as :func:`~repro.cq.compiled.plan_for` keeps a plan on
    its query.
    """
    # setdefault is atomic: racing first uses agree on one dictionary.
    spaces = vars(schema).setdefault(_TUPLE_SPACES_ATTRIBUTE, {})
    key = tuple(domain.values)
    space = spaces.get(key)
    if space is None:
        space = spaces.setdefault(key, frozenset(tuple_space(schema, domain)))
    return space


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
