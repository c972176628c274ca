"""Multi-party collusion analysis.

A data owner publishes views ``V1, ..., Vn`` to ``n`` different
recipients.  Which coalitions of recipients can jointly learn something
about the secret ``S``?

Under the paper's (perfect-secrecy) criterion, Theorem 4.5 implies a very
strong collusion property: ``S | V̄`` holds for all distributions iff
``S | Vi`` holds for every single view, so if every individual view is
secure then **no** coalition can learn anything.  Conversely, the
coalitions that violate security are exactly those containing at least
one individually-insecure view.  :func:`analyse_collusion` reports this
structure; the *degree* of the extra disclosure contributed by colluding
(which perfect secrecy does not distinguish) is measured with
:mod:`repro.core.leakage` — see Example 6.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..cq.canonical import QueryLike, as_queries, as_query
from ..cq.query import ConjunctiveQuery
from ..exceptions import SecurityAnalysisError
from ..relational.domain import Domain
from ..relational.schema import Schema
from .domain_bounds import analysis_domain
from .security import SecurityDecision, decide_security

__all__ = ["CollusionReport", "analyse_collusion", "largest_safe_view_set"]


@dataclass(frozen=True)
class CollusionReport:
    """Result of a multi-party collusion analysis.

    Attributes
    ----------
    secret:
        The confidential query.
    recipients:
        Recipient name per view, aligned with ``views``.
    views:
        The published views.
    per_view:
        Per-view security decisions (Theorem 4.5).
    secure_overall:
        True iff the secret is secure against the grand coalition of all
        recipients (equivalently, against every coalition).
    """

    secret: ConjunctiveQuery
    recipients: Tuple[str, ...]
    views: Tuple[ConjunctiveQuery, ...]
    per_view: Tuple[SecurityDecision, ...]
    secure_overall: bool

    @property
    def insecure_recipients(self) -> Tuple[str, ...]:
        """Recipients whose individual view already violates security."""
        return tuple(
            recipient
            for recipient, decision in zip(self.recipients, self.per_view)
            if not decision.secure
        )

    @property
    def secure_recipients(self) -> Tuple[str, ...]:
        """Recipients whose individual view is secure."""
        return tuple(
            recipient
            for recipient, decision in zip(self.recipients, self.per_view)
            if decision.secure
        )

    def coalition_is_secure(self, coalition: Sequence[str]) -> bool:
        """Whether a coalition of recipients learns nothing about the secret.

        By Theorem 4.5 a coalition is secure iff every member's view is
        individually secure.
        """
        members = set(coalition)
        unknown = members - set(self.recipients)
        if unknown:
            raise SecurityAnalysisError(f"unknown recipients in coalition: {sorted(unknown)}")
        return all(
            decision.secure
            for recipient, decision in zip(self.recipients, self.per_view)
            if recipient in members
        )

    def violating_coalitions(self, max_size: Optional[int] = None) -> List[Tuple[str, ...]]:
        """All minimal violating coalitions (singletons of insecure recipients).

        Under perfect secrecy the minimal coalitions that violate the
        confidentiality of the secret are exactly the single recipients
        holding an insecure view; larger coalitions add nothing new at
        this (qualitative) level.  ``max_size`` is accepted for symmetry
        with leakage-based analyses but does not change the result.
        """
        del max_size  # minimal violating coalitions are always singletons
        return [(recipient,) for recipient in self.insecure_recipients]

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"Collusion analysis for secret {self.secret.name}:"]
        for recipient, view, decision in zip(self.recipients, self.views, self.per_view):
            verdict = "secure" if decision.secure else "NOT secure"
            lines.append(f"  - {recipient} receives {view.name}: {verdict}")
        if self.secure_overall:
            lines.append(
                "  => every coalition (including the grand coalition) learns nothing (Theorem 4.5)."
            )
        else:
            bad = ", ".join(self.insecure_recipients)
            lines.append(f"  => security is violated by: {bad}")
        return "\n".join(lines)


def analyse_collusion(
    secret: QueryLike,
    views: Sequence[QueryLike] | Mapping[str, QueryLike] | QueryLike,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> CollusionReport:
    """Analyse which recipients/coalitions violate the secret's security.

    ``views`` may be a sequence (recipients are auto-named ``user1..``)
    or a mapping ``recipient name → view``.

    The per-view loop reads every critical-tuple set through
    ``critical_fn`` (omitted, the process-wide
    :func:`~repro.core.criticality.default_cache`), so the secret's set
    is computed once, not once per view.
    """
    secret = as_query(secret, "secret")
    view_list = tuple(as_queries(views))
    if isinstance(views, Mapping):
        recipients = tuple(views)
    else:
        recipients = tuple(f"user{i + 1}" for i in range(len(view_list)))

    # One shared analysis domain for all views keeps the verdicts comparable.
    domain = domain or analysis_domain([secret, *view_list])
    per_view = tuple(
        decide_security(secret, view, schema, domain=domain, critical_fn=critical_fn)
        for view in view_list
    )
    return CollusionReport(
        secret=secret,
        recipients=recipients,
        views=view_list,
        per_view=per_view,
        secure_overall=all(d.secure for d in per_view),
    )


def largest_safe_view_set(
    secret: ConjunctiveQuery,
    candidate_views: Sequence[ConjunctiveQuery],
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> Tuple[ConjunctiveQuery, ...]:
    """The largest subset of candidate views that can be published safely.

    Because security is per-view (Theorem 4.5), the answer is simply the
    set of individually-secure views, read off :func:`analyse_collusion`;
    the function exists as a publishing-plan convenience and to make
    that consequence explicit.
    """
    if not candidate_views:
        return ()
    report = analyse_collusion(secret, candidate_views, schema, domain, critical_fn=critical_fn)
    return tuple(
        view
        for view, decision in zip(candidate_views, report.per_view)
        if decision.secure
    )
