"""The shared-critical-tuple computation behind Theorem 4.5 verdicts."""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Set

from ...cq.canonical import as_queries
from ...cq.query import ConjunctiveQuery
from ...relational.domain import Domain
from ...relational.schema import Schema
from ...relational.tuples import Fact
from .base import DEFAULT_MAX_VALUATIONS, InstanceConstraint
from .cache import resolve_critical_fn

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
    (Theorem 4.5), computed by the formula
    :func:`~repro.core.security.decide_security` uses; it is also the
    set of tuples whose status must be disclosed to *restore* security
    via Corollary 5.4.

    Every set comes from ``critical_fn`` (same signature as
    :func:`~repro.core.criticality.critical_tuples`; omitted, the
    process-wide :func:`~repro.core.criticality.default_cache`), which
    receives ``max_valuations``.  A cached provider may serve a set
    without re-checking the bound: the bound guards computation cost,
    not the result.
    """
    views = as_queries(views)
    critical_fn = resolve_critical_fn(critical_fn)
    secret_critical = critical_fn(
        secret, schema, domain, constraint, max_valuations=max_valuations
    )
    if not secret_critical:
        return frozenset()
    view_critical: Set[Fact] = set()
    for view in views:
        view_critical |= critical_fn(
            view, schema, domain, constraint, max_valuations=max_valuations
        )
    return frozenset(secret_critical & view_critical)
