"""Measuring the magnitude of disclosures (Section 6.1).

Perfect query-view security is an all-or-nothing criterion.  When it
fails, the paper quantifies the *positive* disclosure with

    leak(S, V̄) = sup_{s, v̄}  ( P[s ⊆ S(I) | v̄ ⊆ V̄(I)] − P[s ⊆ S(I)] ) / P[s ⊆ S(I)]     (Eq. 9)

— the largest relative increase, over atomic monotone statements, of the
adversary's belief in a secret answer after seeing the views.  A pair is
secure iff the leakage is zero; "minute" disclosures (Table 1 rows 2–3)
have small leakage, while serious partial disclosures have large
leakage.

Theorem 6.1 gives an upper bound: if
``P[L_{s,v̄} | S_s ∧ V_v̄] < ε`` for every ``s, v̄`` — where ``L_{s,v̄}``
is the event that the instance contains some tuple of
``T_{s,v̄} = crit(S_s) ∩ crit(V_v̄)`` — then ``leak(S, V̄) ≤ ε²/(1−ε²)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cq.evaluation import evaluate
from ..cq.query import ConjunctiveQuery
from ..cq.union import UnionQuery
from ..exceptions import SecurityAnalysisError
from ..probability.dictionary import Dictionary
from ..probability.engine import ExactEngine
from ..probability.events import And, Event, FactPresent, Or, QueryContains, query_support
from ..relational.instance import Instance
from ..relational.tuples import Fact
from .criticality import critical_tuples

__all__ = [
    "LeakageResult",
    "possible_answer_tuples",
    "positive_leakage",
    "epsilon_of_theorem_6_1",
    "leakage_bound_from_epsilon",
]


@dataclass(frozen=True)
class LeakageResult:
    """The computed leakage together with the witnessing answers.

    Attributes
    ----------
    leakage:
        The value of Eq. (9) over the explored atomic statements.
    worst_secret_rows / worst_view_rows:
        The secret rows ``s`` and per-view rows ``v̄`` achieving it.
    prior / posterior:
        ``P[s ⊆ S(I)]`` and ``P[s ⊆ S(I) | v̄ ⊆ V̄(I)]`` at the maximiser.
    explored:
        Number of ``(s, v̄)`` combinations examined.
    """

    leakage: Fraction
    worst_secret_rows: Optional[Tuple[Tuple[object, ...], ...]]
    worst_view_rows: Optional[Tuple[Tuple[Tuple[object, ...], ...], ...]]
    prior: Optional[Fraction]
    posterior: Optional[Fraction]
    explored: int

    @property
    def is_secure(self) -> bool:
        """True when no explored statement gained probability (leakage 0)."""
        return self.leakage == 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LeakageResult(leakage={float(self.leakage):.6g}, "
            f"prior={None if self.prior is None else float(self.prior):.6g}, "
            f"posterior={None if self.posterior is None else float(self.posterior):.6g})"
        )


def possible_answer_tuples(
    query: ConjunctiveQuery, dictionary: Dictionary
) -> List[Tuple[object, ...]]:
    """All answer tuples the (monotone) query can produce over the dictionary's domain.

    For a monotone query every attainable answer tuple is attained on the
    full instance (all facts of the query's support present), so a single
    evaluation suffices.
    """
    schema = dictionary.schema
    # key=repr: analysis domains may mix numeric and string constants,
    # which Python refuses to order directly.
    support = sorted(query_support(query, schema), key=repr)
    full = Instance(support)
    return sorted(evaluate(query, full), key=repr)


def _row_combinations(
    rows: List[Tuple[object, ...]], max_rows: int
) -> List[Tuple[Tuple[object, ...], ...]]:
    """Non-empty subsets of candidate rows up to the requested size."""
    combos: List[Tuple[Tuple[object, ...], ...]] = []
    for size in range(1, max_rows + 1):
        combos.extend(itertools.combinations(rows, size))
    return combos


def positive_leakage(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    dictionary: Dictionary,
    max_secret_rows: int = 1,
    max_view_rows: int = 1,
    max_support_size: Optional[int] = None,
) -> LeakageResult:
    """Compute ``leak(S, V̄)`` of Eq. (9) by exhaustive search.

    By default atomic statements are single rows (``|s| = |v_i| = 1``),
    matching the paper's worked Examples 6.2/6.3; ``max_secret_rows`` /
    ``max_view_rows`` widen the search to larger inclusion statements.

    Delegates to the default :class:`~repro.session.AnalysisSession`
    (see :meth:`~repro.session.AnalysisSession.leakage` for the
    session-native form with timing and cache accounting).
    """
    from ..session.default import default_session

    return (
        default_session(dictionary.schema)
        .leakage(
            secret,
            views,
            dictionary=dictionary,
            max_secret_rows=max_secret_rows,
            max_view_rows=max_view_rows,
            max_support_size=max_support_size,
        )
        .measurement
    )


def _positive_leakage(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    dictionary: Dictionary,
    max_secret_rows: int = 1,
    max_view_rows: int = 1,
    max_support_size: Optional[int] = None,
) -> LeakageResult:
    """The Eq. (9) search itself (called by the session layer)."""
    if isinstance(views, (ConjunctiveQuery, UnionQuery)):
        views = [views]
    views = list(views)
    if not views:
        raise SecurityAnalysisError("at least one view is required")

    engine = ExactEngine(dictionary, max_support_size=max_support_size)
    secret_rows = possible_answer_tuples(secret, dictionary)
    view_rows = [possible_answer_tuples(view, dictionary) for view in views]

    best = Fraction(0)
    best_secret: Optional[Tuple[Tuple[object, ...], ...]] = None
    best_views: Optional[Tuple[Tuple[Tuple[object, ...], ...], ...]] = None
    best_prior: Optional[Fraction] = None
    best_posterior: Optional[Fraction] = None
    explored = 0

    secret_combos = _row_combinations(secret_rows, max_secret_rows)
    view_combo_lists = [_row_combinations(rows, max_view_rows) for rows in view_rows]

    for secret_combo in secret_combos:
        secret_event = QueryContains(secret, secret_combo)
        prior = engine.probability(secret_event)
        if prior == 0:
            continue
        for view_combo in itertools.product(*view_combo_lists):
            explored += 1
            view_event: Event = And(
                tuple(QueryContains(v, rows) for v, rows in zip(views, view_combo))
            )
            p_view = engine.probability(view_event)
            if p_view == 0:
                continue
            posterior = engine.joint_probability([secret_event, view_event]) / p_view
            gain = (posterior - prior) / prior
            if gain > best:
                best = gain
                best_secret = secret_combo
                best_views = view_combo
                best_prior = prior
                best_posterior = posterior

    return LeakageResult(
        leakage=best,
        worst_secret_rows=best_secret,
        worst_view_rows=best_views,
        prior=best_prior,
        posterior=best_posterior,
        explored=explored,
    )


def epsilon_of_theorem_6_1(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    dictionary: Dictionary,
    max_secret_rows: int = 1,
    max_view_rows: int = 1,
    max_support_size: Optional[int] = None,
    *,
    critical_fn=None,
) -> Fraction:
    """The ε of Theorem 6.1: ``max_{s,v̄} P[L_{s,v̄} | S_s ∧ V_v̄]``.

    ``L_{s,v̄}`` is the event that the instance intersects
    ``T_{s,v̄} = crit(S_s) ∩ crit(V_v̄)`` — the common critical tuples of
    the boolean specialisations.  The probabilities are computed over the
    dictionary's own domain.
    """
    critical_fn = critical_fn or critical_tuples
    if isinstance(views, (ConjunctiveQuery, UnionQuery)):
        views = [views]
    views = list(views)
    if not views:
        raise SecurityAnalysisError("at least one view is required")

    schema = dictionary.schema
    engine = ExactEngine(dictionary, max_support_size=max_support_size)
    secret_rows = possible_answer_tuples(secret, dictionary)
    view_rows = [possible_answer_tuples(view, dictionary) for view in views]

    epsilon = Fraction(0)
    secret_combos = _row_combinations(secret_rows, max_secret_rows)
    view_combo_lists = [_row_combinations(rows, max_view_rows) for rows in view_rows]

    for secret_combo in secret_combos:
        # Boolean specialisation S_s: "s ⊆ S(I)" as the conjunction of the
        # per-row boolean queries; its critical tuples are the union.
        secret_specs = [secret.boolean_specialisation(row) for row in secret_combo]
        secret_crit: FrozenSet[Fact] = frozenset().union(
            *(critical_fn(spec, schema) for spec in secret_specs)
        )
        secret_event = QueryContains(secret, secret_combo)
        for view_combo in itertools.product(*view_combo_lists):
            view_specs = [
                view.boolean_specialisation(row)
                for view, rows in zip(views, view_combo)
                for row in rows
            ]
            view_crit: FrozenSet[Fact] = frozenset().union(
                *(critical_fn(spec, schema) for spec in view_specs)
            ) if view_specs else frozenset()
            common = secret_crit & view_crit
            view_event: Event = And(
                tuple(QueryContains(v, rows) for v, rows in zip(views, view_combo))
            )
            conditioning = And((secret_event, view_event))
            p_conditioning = engine.probability(conditioning)
            if p_conditioning == 0:
                continue
            if not common:
                continue
            touches_common = Or(tuple(FactPresent(t) for t in sorted(common, key=repr)))
            p_joint = engine.joint_probability([touches_common, conditioning])
            epsilon = max(epsilon, p_joint / p_conditioning)
    return epsilon


def leakage_bound_from_epsilon(epsilon: Fraction | float) -> float:
    """The Theorem 6.1 bound ``ε²/(1−ε²)`` (requires ``ε < 1``)."""
    eps = float(epsilon)
    if not 0 <= eps < 1:
        raise SecurityAnalysisError(
            f"Theorem 6.1 requires 0 <= ε < 1, got ε = {eps}"
        )
    return eps * eps / (1 - eps * eps)
