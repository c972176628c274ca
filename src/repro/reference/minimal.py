"""The Appendix A minimal-instance search for ``crit_D(Q)``.

For monotone queries it suffices to consider instances that are
homomorphic images of the query body, so a tuple is critical iff some
valuation maps a subgoal onto it and the produced answer disappears
when the tuple is removed.  Cost is ``O(|body| · |D|^{#vars})`` per
candidate tuple.  The production engine
(:class:`~repro.core.criticality.PrunedParallelEngine`) prunes and
reduces this search by symmetry; it must return the same sets.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, Optional

from ..core.criticality.base import (
    DEFAULT_MAX_VALUATIONS,
    InstanceConstraint,
    _tuple_space_set,
    candidate_critical_facts,
)
from ..cq.evaluation import answer_contains, answer_tuple
from ..cq.query import ConjunctiveQuery
from ..cq.unification import match_atom_to_fact
from ..cq.terms import Variable
from ..exceptions import IntractableAnalysisError
from ..relational.domain import Domain
from ..relational.instance import Instance
from ..relational.schema import Schema
from ..relational.tuples import Fact

__all__ = ["is_critical", "critical_tuples"]


def _valuations_mapping_subgoal_to_fact(
    query: ConjunctiveQuery,
    atom_index: int,
    fact: Fact,
    domain: Domain,
    max_valuations: int,
) -> Iterator[Dict[Variable, object]]:
    """All total valuations of the query's variables that map one subgoal onto ``fact``."""
    seed = match_atom_to_fact(query.body[atom_index], fact)
    if seed is None:
        return
    remaining = sorted(v for v in query.variables if v not in seed)
    total = len(domain) ** len(remaining) if remaining else 1
    if total > max_valuations:
        raise IntractableAnalysisError(
            f"critical-tuple search would enumerate {total} valuations for one subgoal; "
            f"exceeds the configured bound ({max_valuations}); shrink the domain",
            size_estimate=total,
        )
    for combo in itertools.product(domain.values, repeat=len(remaining)):
        valuation = dict(seed)
        valuation.update(zip(remaining, combo))
        yield valuation


def _comparisons_hold(query: ConjunctiveQuery, valuation: Dict[Variable, object]) -> bool:
    return all(comparison.evaluate(valuation) for comparison in query.comparisons)


def is_critical(
    fact: Fact,
    query: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    constraint: Optional[InstanceConstraint] = None,
    max_valuations: int = DEFAULT_MAX_VALUATIONS,
    *,
    allowed: Optional[FrozenSet[Fact]] = None,
) -> bool:
    """Decide ``fact ∈ crit_D(Q)`` via the minimal-instance search.

    ``constraint``, when given, must be closed under subsets (keys,
    denial constraints); criticality is then relative to instances
    satisfying it (the ``crit_D(Q, K)`` of Corollary 5.3).

    Unions of conjunctive queries are supported: the minimal witnessing
    instance is then an image of one disjunct's body, but the answer
    must disappear from the *whole union* when the fact is removed.

    ``allowed`` lets a batch caller pass a pre-materialised ``tup(D)``.
    """
    domain = domain or schema.domain
    if allowed is None:
        allowed = _tuple_space_set(schema, domain)
    if fact not in allowed:
        return False
    disjuncts = getattr(query, "disjuncts", None) or (query,)
    for disjunct in disjuncts:
        for atom_index in range(len(disjunct.body)):
            for valuation in _valuations_mapping_subgoal_to_fact(
                disjunct, atom_index, fact, domain, max_valuations
            ):
                if not _comparisons_hold(disjunct, valuation):
                    continue
                body_facts = [atom.ground(valuation) for atom in disjunct.body]
                if any(f not in allowed for f in body_facts):
                    continue
                witness = Instance(body_facts)
                if fact not in witness:
                    continue
                if constraint is not None and not constraint(witness):
                    continue
                produced = answer_tuple(disjunct, valuation)
                without = witness.remove(fact)
                if constraint is not None and not constraint(without):
                    # A subset-closed constraint can never rule the smaller
                    # instance out, but guard anyway for caller-supplied
                    # predicates that are not actually subset-closed.
                    continue
                # Delta check: only the produced row is re-derived on the
                # shrunken witness (head-seeded on the compiled engine)
                # instead of re-evaluating the whole query per candidate.
                if not answer_contains(query, without, produced):
                    return True
    return False


def critical_tuples(
    query: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    constraint: Optional[InstanceConstraint] = None,
    max_valuations: int = DEFAULT_MAX_VALUATIONS,
) -> FrozenSet[Fact]:
    """``crit_D(Q)`` (or ``crit_D(Q, K)`` when a constraint is given)."""
    domain = domain or schema.domain
    result = {
        fact
        for fact in candidate_critical_facts(query, schema, domain)
        if is_critical(fact, query, schema, domain, constraint, max_valuations)
    }
    return frozenset(result)
