"""The shared-critical-tuple computation behind Theorem 4.5 verdicts."""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Set

from ...cq.canonical import as_queries
from ...cq.query import ConjunctiveQuery
from ...relational.domain import Domain
from ...relational.schema import Schema
from ...relational.tuples import Fact
from .base import (
    DEFAULT_MAX_VALUATIONS,
    InstanceConstraint,
    _tuple_space_set,
    candidate_critical_facts,
)
from .pruned import critical_tuples, is_critical

__all__ = ["common_critical_tuples"]


def common_critical_tuples(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery],
    schema: Schema,
    domain: Optional[Domain] = None,
    constraint: Optional[InstanceConstraint] = None,
    *,
    critical_fn=None,
    max_valuations: int = DEFAULT_MAX_VALUATIONS,
) -> FrozenSet[Fact]:
    """``crit_D(S) ∩ crit_D(V̄)`` where ``crit_D(V̄) = ∪_i crit_D(V_i)``.

    This is the set whose emptiness characterises query-view security
    (Theorem 4.5); it is also the set of tuples whose status must be
    disclosed to *restore* security via Corollary 5.4.

    ``critical_fn`` (same signature as
    :func:`~repro.core.criticality.critical_tuples`, the default) lets a
    session supply its cached provider for the full-set computations;
    the per-fact candidate filtering always runs on the production
    engine.  ``max_valuations`` bounds the valuation
    space of *every* criticality check performed here — the full secret
    set and the per-view re-checks alike.  (When ``critical_fn`` is a
    session's cached provider, a warm cache may serve the secret's set
    without re-checking the bound; the bound guards computation cost,
    not the result.)
    """
    views = as_queries(views)
    if critical_fn is None:
        critical_fn = critical_tuples
    secret_critical = critical_fn(
        secret, schema, domain, constraint, max_valuations=max_valuations
    )
    if not secret_critical:
        return frozenset()
    # One tuple space for every candidate filter and per-fact re-check
    # below — re-enumerating it per overlapping fact dominates the loop
    # on larger domains.
    allowed = _tuple_space_set(schema, domain or schema.domain)
    common: Set[Fact] = set()
    for view in views:
        view_candidates = candidate_critical_facts(view, schema, domain, allowed=allowed)
        overlap = secret_critical & view_candidates
        for fact in overlap:
            if is_critical(
                fact,
                view,
                schema,
                domain,
                constraint,
                max_valuations=max_valuations,
                allowed=allowed,
            ):
                common.add(fact)
    return frozenset(common)
