"""Query-view security decisions (Definition 4.1, Theorems 4.5 and 4.8).

Two complementary procedures are provided.

:func:`decide_security` implements the dictionary-independent decision of
Theorem 4.5: compute the critical tuples of the secret and of every view
over a sufficiently large analysis domain (Proposition 4.9) and check
that the intersection is empty.  The result is a :class:`SecurityDecision`
carrying the evidence (the common critical tuples when insecure).

:func:`verify_security_probabilistically` implements Definition 4.1
literally for a concrete dictionary: it enumerates every possible answer
``s`` of the secret and ``v̄`` of the views and checks
``P[S=s ∧ V̄=v̄] = P[S=s]·P[V̄=v̄]`` (Eq. 4) with exact rational
arithmetic.  It is exponential and meant for small domains — it is what
the test-suite uses to validate Theorem 4.5 end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..cq.query import ConjunctiveQuery
from ..cq.union import UnionQuery
from ..exceptions import SecurityAnalysisError
from ..probability.dictionary import Dictionary
from ..probability.kernel import ProbabilityKernel
from ..relational.domain import Domain
from ..relational.schema import Schema
from ..relational.tuples import Fact
from .domain_bounds import analysis_schema, required_domain_size, untyped_schema

__all__ = [
    "SecurityDecision",
    "decide_security",
    "is_secure",
    "verify_security_probabilistically",
    "independence_gap",
]


@dataclass(frozen=True)
class SecurityDecision:
    """Outcome of a dictionary-independent query-view security check.

    Attributes
    ----------
    secure:
        ``True`` iff the secret is secure with respect to the views for
        every probability distribution (Theorem 4.5).
    secret, views:
        The analysed queries.
    secret_critical:
        ``crit_D(S)`` over the analysis domain.
    view_critical:
        ``crit_D(V_i)`` per view, in view order.
    common_critical:
        ``crit_D(S) ∩ crit_D(V̄)`` — empty iff secure.
    domain:
        The analysis domain that was used.
    method:
        Which procedure produced the decision (``"critical-tuples"``).
    """

    secure: bool
    secret: ConjunctiveQuery
    views: Tuple[ConjunctiveQuery, ...]
    secret_critical: FrozenSet[Fact]
    view_critical: Tuple[FrozenSet[Fact], ...]
    common_critical: FrozenSet[Fact]
    domain: Domain
    method: str = "critical-tuples"

    @property
    def insecure_views(self) -> Tuple[ConjunctiveQuery, ...]:
        """The views that individually share a critical tuple with the secret."""
        offending = []
        for view, crit in zip(self.views, self.view_critical):
            if crit & self.secret_critical:
                offending.append(view)
        return tuple(offending)

    def explain(self) -> str:
        """A short human-readable explanation of the verdict."""
        if self.secure:
            return (
                f"{self.secret.name} is secure w.r.t. "
                f"{', '.join(v.name for v in self.views)}: "
                f"crit({self.secret.name}) and crit(views) are disjoint "
                f"(Theorem 4.5), for every probability distribution."
            )
        witnesses = ", ".join(repr(f) for f in sorted(self.common_critical, key=repr)[:5])
        more = "" if len(self.common_critical) <= 5 else ", ..."
        return (
            f"{self.secret.name} is NOT secure w.r.t. "
            f"{', '.join(v.name for v in self.views)}: "
            f"shared critical tuple(s) {witnesses}{more} exist, so some "
            f"distribution leaks information (Theorem 4.5)."
        )


def _require_query(value, role: str):
    """Uniform type validation for secrets and views.

    The legacy normalisation accepted a :class:`UnionQuery` secret only
    implicitly (through an ``isinstance`` tuple meant for views); this
    makes the contract explicit and the failure mode a clear
    :class:`SecurityAnalysisError` rather than an ``AttributeError``
    deep inside the critical-tuple search.
    """
    if isinstance(value, (ConjunctiveQuery, UnionQuery)):
        return value
    raise SecurityAnalysisError(
        f"the {role} must be a ConjunctiveQuery or a UnionQuery, "
        f"got {type(value).__name__}: {value!r}"
    )


def decide_security(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> SecurityDecision:
    """Dictionary-independent security decision via Theorem 4.5.

    Parameters
    ----------
    secret:
        The confidential query ``S``.
    views:
        One view or a sequence of views ``V1, ..., Vk``.
    schema:
        The database schema the queries range over.
    domain:
        Analysis domain.  When omitted, a domain satisfying
        Proposition 4.9 is synthesised from the queries' constants.
    critical_fn:
        Critical-tuple provider with the signature of
        :func:`~repro.core.criticality.critical_tuples`.  When omitted
        the call delegates to the module-level default
        :class:`~repro.session.AnalysisSession`, which memoizes every
        ``crit_D(Q)`` in a shared LRU cache; sessions pass their own
        cached provider here.
    """
    if critical_fn is None:
        from ..session.default import default_session

        return default_session(schema).decide(secret, views, domain=domain).decision

    _require_query(secret, "secret")
    if isinstance(views, (ConjunctiveQuery, UnionQuery)):
        views = [views]
    views = [_require_query(view, "view") for view in views]
    if not views:
        raise SecurityAnalysisError("at least one view is required")

    if domain is None:
        working_schema = analysis_schema(schema, [secret, *views])
        domain = working_schema.domain
    else:
        working_schema = untyped_schema(schema, domain)
        minimum = required_domain_size([secret, *views])
        if len(domain) < minimum:
            raise SecurityAnalysisError(
                f"analysis domain has {len(domain)} constants but Proposition 4.9 "
                f"requires at least {minimum} for a domain-independent verdict"
            )

    secret_critical = critical_fn(secret, working_schema, domain)
    view_critical = tuple(
        critical_fn(view, working_schema, domain) for view in views
    )
    all_view_critical: set[Fact] = set()
    for crit in view_critical:
        all_view_critical |= crit
    common = frozenset(secret_critical & all_view_critical)
    return SecurityDecision(
        secure=not common,
        secret=secret,
        views=tuple(views),
        secret_critical=secret_critical,
        view_critical=view_critical,
        common_critical=common,
        domain=domain,
    )


def is_secure(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
) -> bool:
    """Convenience wrapper returning only the boolean verdict of
    :func:`decide_security`."""
    return decide_security(secret, views, schema, domain).secure


def _independence_terms(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    dictionary: Dictionary,
    max_support_size: Optional[int],
) -> Iterator[Tuple[Fraction, Fraction]]:
    """``(P[S=s ∧ V̄=v̄], P[S=s]·P[V̄=v̄])`` for every answer pair of Eq. (4).

    The joint answer distribution comes from the kernel shared per
    dictionary; the marginals are summed from it once.  Raises
    :class:`SecurityAnalysisError` without views: Definition 4.1 needs
    at least one.
    """
    if isinstance(views, (ConjunctiveQuery, UnionQuery)):
        views = [views]
    views = list(views)
    if not views:
        raise SecurityAnalysisError("at least one view is required")
    kernel = ProbabilityKernel.shared(dictionary)
    joint = kernel.joint_answer_distribution(
        [secret, *views], max_support_size=max_support_size
    )

    secret_marginal: Dict[FrozenSet, Fraction] = {}
    views_marginal: Dict[Tuple, Fraction] = {}
    for key, probability in joint.items():
        secret_answer, view_answers = key[0], key[1:]
        secret_marginal[secret_answer] = (
            secret_marginal.get(secret_answer, Fraction(0)) + probability
        )
        views_marginal[view_answers] = (
            views_marginal.get(view_answers, Fraction(0)) + probability
        )

    for secret_answer, p_secret in secret_marginal.items():
        for view_answers, p_views in views_marginal.items():
            p_joint = joint.get((secret_answer, *view_answers), Fraction(0))
            yield p_joint, p_secret * p_views


def verify_security_probabilistically(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    dictionary: Dictionary,
    max_support_size: Optional[int] = None,
) -> bool:
    """Literal Definition 4.1 check for one concrete dictionary.

    Uses Eq. (4): for every pair of answers ``(s, v̄)`` attained over the
    support, check ``P[S=s ∧ V̄=v̄] = P[S=s]·P[V̄=v̄]`` exactly.  The
    joint answer distribution comes from the compiled kernel shared per
    dictionary, so repeated verification of the same pair — or a
    follow-up :func:`independence_gap` on it — enumerates the support
    only once.
    """
    return all(
        p_joint == p_product
        for p_joint, p_product in _independence_terms(
            secret, views, dictionary, max_support_size
        )
    )


def independence_gap(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    dictionary: Dictionary,
    max_support_size: Optional[int] = None,
) -> Fraction:
    """The largest violation of Eq. (4) over all answer pairs.

    ``max_{s, v̄} |P[S=s ∧ V̄=v̄] − P[S=s]·P[V̄=v̄]|`` — zero iff the secret
    is secure for this dictionary.  Useful for quantifying *how far* an
    insecure pair is from independence under a specific distribution.
    Shares the kernel's memoized joint distribution with
    :func:`verify_security_probabilistically`, and like it needs at
    least one view.
    """
    return max(
        abs(p_joint - p_product)
        for p_joint, p_product in _independence_terms(
            secret, views, dictionary, max_support_size
        )
    )
