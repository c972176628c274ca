"""Definition 4.4 and answerability by enumerating every instance of ``inst(D)``.

Enumerates ``2^|tup(D)|`` instances, so it is exponential in the
tuple-space size; it exists for cross-validation in tests and for the
ablation benchmarks.  The critical-tuple oracle supports arbitrary
(subset-closed) instance constraints; :func:`determines_naive`, the
oracle of :func:`repro.cq.containment.determines`, groups the instances
by the views' answers.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from ..core.criticality.base import InstanceConstraint
from ..cq.evaluation import delta_changes, evaluate
from ..cq.query import ConjunctiveQuery
from ..relational.domain import Domain
from ..relational.instance import Instance, enumerate_instances
from ..relational.schema import Schema
from ..relational.tuples import Fact, tuple_space

__all__ = ["is_critical_naive", "critical_tuples_naive", "determines_naive"]

#: The ``Q(I) ≠ Q(I − t)`` test: ``changes(query, instance, fact)``.
ChangeTest = Callable[[ConjunctiveQuery, Instance, Fact], bool]


def is_critical_naive(
    fact: Fact,
    query: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    constraint: Optional[InstanceConstraint] = None,
    max_tuples: int = 16,
    changes: ChangeTest = delta_changes,
) -> bool:
    """Literal Definition 4.4: enumerate every instance of ``inst(D)``.

    Exponential in ``|tup(D)|``; used for cross-validation in tests and
    for the ablation benchmark.  ``changes`` decides ``Q(I) ≠ Q(I − t)``;
    the default re-derives only the derivations using the fact
    (:func:`~repro.cq.evaluation.delta_changes`), and a benchmark may
    pass two full reference evaluations instead.
    """
    domain = domain or schema.domain
    facts = tuple_space(schema, domain)
    if fact not in facts:
        return False
    for instance in enumerate_instances(schema, domain, max_tuples=max_tuples):
        if constraint is not None and not constraint(instance):
            continue
        with_fact = instance.add(fact)
        if constraint is not None and not constraint(with_fact):
            continue
        if changes(query, with_fact, fact):
            return True
    return False


def critical_tuples_naive(
    query: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    constraint: Optional[InstanceConstraint] = None,
    max_tuples: int = 16,
    changes: ChangeTest = delta_changes,
) -> FrozenSet[Fact]:
    """``crit_D(Q)`` computed with the naive instance enumeration."""
    domain = domain or schema.domain
    result = {
        fact
        for fact in tuple_space(schema, domain)
        if is_critical_naive(
            fact, query, schema, domain, constraint, max_tuples, changes
        )
    }
    return frozenset(result)


def determines_naive(
    views: Sequence[ConjunctiveQuery],
    secret: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    max_tuples: int = 20,
) -> bool:
    """Answerability by enumerating every instance over the domain.

    ``True`` iff for every pair of instances over the domain,
    ``V̄(I) = V̄(I')`` implies ``S(I) = S(I')``.  Raises
    :class:`IntractableAnalysisError` when ``tup(D)`` has more than
    ``max_tuples`` facts.
    """
    groups: Dict[Tuple[FrozenSet, ...], FrozenSet] = {}
    for instance in enumerate_instances(schema, domain, max_tuples=max_tuples):
        view_answers = tuple(evaluate(view, instance) for view in views)
        secret_answer = evaluate(secret, instance)
        previous = groups.get(view_answers)
        if previous is None:
            groups[view_answers] = secret_answer
        elif previous != secret_answer:
            return False
    return True
