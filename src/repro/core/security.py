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

Both take query objects or datalog strings; :func:`decide_security`
memoizes ``crit_D`` in :func:`~repro.core.criticality.default_cache`
unless the caller passes its own ``critical_fn``
(:func:`~repro.core.criticality.resolve_critical_fn`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple

from ..cq.canonical import QueryLike, as_queries, as_query
from ..cq.query import ConjunctiveQuery
from ..exceptions import KnowledgeError
from ..probability.dictionary import Dictionary
from ..probability.events import Event
from ..probability.kernel import ProbabilityKernel
from ..relational.domain import Domain
from ..relational.schema import Schema
from ..relational.tuples import Fact
from .criticality import resolve_critical_fn
from .domain_bounds import analysis_schema

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


def decide_security(
    secret: QueryLike,
    views: Sequence[QueryLike] | Mapping[str, QueryLike] | QueryLike,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> SecurityDecision:
    """Dictionary-independent security decision via Theorem 4.5.

    Parameters
    ----------
    secret:
        The confidential query ``S`` (a query object or a datalog string).
    views:
        One view, a sequence of views ``V1, ..., Vk`` or a mapping
        ``recipient → view``.
    schema:
        The database schema the queries range over.
    domain:
        Analysis domain.  When omitted, a domain satisfying
        Proposition 4.9 is synthesised from the queries' constants.
    critical_fn:
        Critical-tuple provider with the signature of
        :func:`~repro.core.criticality.critical_tuples`.  When omitted
        the process-wide :func:`~repro.core.criticality.default_cache`
        memoizes every ``crit_D(Q)``; sessions pass their own cache's
        provider here.
    """
    critical_fn = resolve_critical_fn(critical_fn)
    secret = as_query(secret, "secret")
    views = as_queries(views)

    working_schema = analysis_schema(schema, [secret, *views], domain)
    domain = working_schema.domain

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
    knowledge: Optional[Event] = None,
) -> Tuple[int, Iterator[Tuple[int, int]]]:
    """Eq. (4), or Eq. (7) under knowledge ``K``, in integers.

    Returns ``d`` and ``(joint·k, s·v)`` for every answer pair.  The
    joint distribution comes from the kernel, memoized in the
    dictionary's table, with ``K`` as its one event; only ``K``-true
    classes count.  It is put once over ``d``, the least common multiple
    of its denominators, so every probability is an integer numerator:
    ``P[S=s ∧ V̄=v̄ ∧ K] = joint/d``, ``P[S=s ∧ K] = s/d``,
    ``P[V̄=v̄ ∧ K] = v/d`` and ``P[K] = k/d``.  Eq. (7),
    ``P[S=s ∧ V̄=v̄ ∧ K]·P[K] = P[S=s ∧ K]·P[V̄=v̄ ∧ K]``, is then
    ``joint·k = s·v`` on ints, and no :class:`~fractions.Fraction` is
    built per pair.  Without ``K``, ``k`` is ``d`` and this is Eq. (4):
    ``P[S=s ∧ V̄=v̄] − P[S=s]·P[V̄=v̄] = (joint·d − s·v)/d²``.  Only
    answers attained with ``K`` are paired: a pair with a zero marginal
    has a zero joint, so both sides are 0.  Raises
    :class:`SecurityAnalysisError` without views (Definition 4.1 needs
    at least one) and :class:`KnowledgeError` when ``P[K] = 0``.
    """
    secret = as_query(secret, "secret")
    views = as_queries(views)
    events = () if knowledge is None else (knowledge,)
    joint = ProbabilityKernel(dictionary, max_support_size).joint_distribution(
        [secret, *views], events
    )
    denominator = math.lcm(*{probability.denominator for probability in joint.values()})
    numerators: Dict[Tuple, int] = {}
    for key, probability in joint.items():
        if events and not key[-1]:  # K fails on this outcome class
            continue
        answers = key[: 1 + len(views)]
        numerators[answers] = probability.numerator * (denominator // probability.denominator)
    knowledge_mass = sum(numerators.values())
    if knowledge_mass == 0:
        raise KnowledgeError("the prior knowledge has probability zero under this dictionary")

    secret_marginal: Dict[FrozenSet, int] = {}
    views_marginal: Dict[Tuple, int] = {}
    for key, numerator in numerators.items():
        secret_answer, view_answers = key[0], key[1:]
        secret_marginal[secret_answer] = secret_marginal.get(secret_answer, 0) + numerator
        views_marginal[view_answers] = views_marginal.get(view_answers, 0) + numerator

    def terms() -> Iterator[Tuple[int, int]]:
        for secret_answer, s in secret_marginal.items():
            for view_answers, v in views_marginal.items():
                yield numerators.get((secret_answer, *view_answers), 0) * knowledge_mass, s * v

    return denominator, terms()


def verify_security_probabilistically(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    dictionary: Dictionary,
    max_support_size: Optional[int] = None,
) -> bool:
    """Literal Definition 4.1 check for one concrete dictionary.

    Uses Eq. (4): for every pair of answers ``(s, v̄)`` attained over the
    support, check ``P[S=s ∧ V̄=v̄] = P[S=s]·P[V̄=v̄]`` exactly (on
    integer numerators over a common denominator).  The joint answer
    distribution comes from the compiled kernel, memoized in the
    dictionary's table, so repeated verification of the same pair — or a follow-up
    :func:`independence_gap` on it — enumerates the support only once.
    """
    _, terms = _independence_terms(secret, views, dictionary, max_support_size)
    return all(joint == product for joint, product in terms)


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
    denominator, terms = _independence_terms(secret, views, dictionary, max_support_size)
    return Fraction(max(abs(joint - product) for joint, product in terms), denominator**2)
