"""The criticality-engine interface.

Every verdict this library produces — Theorem 4.5 security, collusion,
prior knowledge, leakage bounds, practical security — funnels through
the computation of critical-tuple sets ``crit_D(Q)`` (Definition 4.4).
:class:`CriticalityEngine` names that computation's interface; the
production engine is :class:`~repro.core.criticality.pruned.
PrunedParallelEngine`.

Which facts an engine scans — the homomorphic images of the query's
subgoals, :func:`~repro.cq.witness.candidate_critical_facts` — is
decided in :mod:`repro.cq.witness`.  The production engine and the
reference oracles of :mod:`repro.reference` share it, so the engines can
never diverge on what counts as a candidate critical tuple.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional

from ...relational.domain import Domain
from ...relational.instance import Instance
from ...relational.schema import Schema
from ...relational.tuples import Fact

__all__ = [
    "InstanceConstraint",
    "DEFAULT_MAX_VALUATIONS",
    "CriticalityEngine",
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
