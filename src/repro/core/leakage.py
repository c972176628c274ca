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
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..cq.canonical import QueryLike, as_queries, as_query
from ..cq.compose import conjoin_all
from ..cq.evaluation import evaluate
from ..cq.query import ConjunctiveQuery
from ..exceptions import IntractableAnalysisError, SecurityAnalysisError
from ..probability.dictionary import Dictionary
from ..probability.engine import ExactEngine
from ..probability.events import And, Event, FactPresent, Or, QueryContains, query_support
from ..relational.instance import Instance
from ..relational.tuples import Fact
from .criticality import resolve_critical_fn

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


@dataclass(frozen=True)
class _Statement:
    """One atomic statement: ``s ⊆ S(I)``, or ``v̄ ⊆ V̄(I)`` over every view.

    ``rows`` is ``s`` (a tuple of secret rows) or ``v̄`` (one tuple of
    rows per view), ``event`` the statement as a monotone event, and
    ``parts`` the ``(query, rows)`` pairs it asserts.
    """

    rows: Tuple
    event: Event
    parts: Tuple[Tuple[ConjunctiveQuery, Tuple[Tuple[object, ...], ...]], ...]

    def critical_tuples(self, critical_fn, schema) -> FrozenSet[Fact]:
        """``crit`` of the statement's boolean query: its rows' specialisations, conjoined.

        Not the union of the specialisations' critical tuples, which can
        be larger: in ``T(y) ∧ R(a, a) ∧ T(a)`` the fact ``T(b)`` is
        critical for the first conjunct alone, not for the conjunction.
        """
        specialisations = [
            query.boolean_specialisation(row) for query, rows in self.parts for row in rows
        ]
        return critical_fn(conjoin_all(specialisations), schema)


def _atomic_statements(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery],
    dictionary: Dictionary,
    max_secret_rows: int,
    max_view_rows: int,
) -> Tuple[List[_Statement], List[_Statement]]:
    """Every secret statement ``s`` and every view statement ``v̄``, in search order."""
    secret_rows = possible_answer_tuples(secret, dictionary)
    view_rows = [possible_answer_tuples(view, dictionary) for view in views]
    secrets = [
        _Statement(combo, QueryContains(secret, combo), ((secret, combo),))
        for combo in _row_combinations(secret_rows, max_secret_rows)
    ]
    view_statements = [
        _Statement(
            combo,
            And(tuple(QueryContains(v, rows) for v, rows in zip(views, combo))),
            tuple(zip(views, combo)),
        )
        for combo in itertools.product(
            *(_row_combinations(rows, max_view_rows) for rows in view_rows)
        )
    ]
    return secrets, view_statements


def positive_leakage(
    secret: QueryLike,
    views: Sequence[QueryLike] | Mapping[str, QueryLike] | QueryLike,
    dictionary: Dictionary,
    max_secret_rows: int = 1,
    max_view_rows: int = 1,
    max_support_size: Optional[int] = None,
    *,
    critical_fn=None,
) -> LeakageResult:
    """Compute ``leak(S, V̄)`` of Eq. (9) by exhaustive search.

    By default atomic statements are single rows (``|s| = |v_i| = 1``),
    matching the paper's worked Examples 6.2/6.3; ``max_secret_rows`` /
    ``max_view_rows`` widen the search to larger inclusion statements.
    Accepts query objects or datalog strings, and one view, a sequence
    of views or a ``recipient → view`` mapping.

    ``P[s]`` is computed once per secret statement and only ``P[s ∧ v̄]``
    per pair.  A pair whose boolean statements share no critical tuple
    is counted in ``explored`` but not computed: by Theorem 4.5 the two
    statements are functions of disjoint tuples, hence independent, and
    the pair's gain is exactly 0.  Each statement's critical tuples are
    computed once, through ``critical_fn`` (omitted, the process-wide
    :func:`~repro.core.criticality.default_cache`); a statement whose
    crit_D is refused as intractable has all its pairs computed.
    ``P[v̄]`` is computed once per view statement, the first time a pair
    that is not skipped needs it.
    :meth:`~repro.session.AnalysisSession.leakage` runs this search on
    its session's cache and adds timing.
    """
    critical_fn = resolve_critical_fn(critical_fn)
    secret = as_query(secret, "secret")
    views = as_queries(views)

    schema = dictionary.schema
    engine = ExactEngine(dictionary, max_support_size=max_support_size)
    secrets, view_statements = _atomic_statements(
        secret, views, dictionary, max_secret_rows, max_view_rows
    )

    def crit(statement: _Statement) -> Optional[FrozenSet[Fact]]:
        """The statement's critical tuples; ``None`` computes all its pairs."""
        try:
            return statement.critical_tuples(critical_fn, schema)
        except IntractableAnalysisError:
            return None

    best = Fraction(0)
    best_secret: Optional[Tuple[Tuple[object, ...], ...]] = None
    best_views: Optional[Tuple[Tuple[Tuple[object, ...], ...], ...]] = None
    best_prior: Optional[Fraction] = None
    best_posterior: Optional[Fraction] = None
    explored = 0
    p_views: Dict[int, Fraction] = {}
    view_crits: Dict[int, Optional[FrozenSet[Fact]]] = {}

    for statement in secrets:
        prior = engine.probability(statement.event)
        if prior == 0:
            continue
        secret_crit = crit(statement)
        for index, view_statement in enumerate(view_statements):
            explored += 1
            if secret_crit is not None:
                if index not in view_crits:
                    view_crits[index] = crit(view_statement)
                view_crit = view_crits[index]
                if view_crit is not None and not secret_crit & view_crit:
                    continue  # independent statements: the gain is exactly 0
            if index not in p_views:
                p_views[index] = engine.probability(view_statement.event)
            p_view = p_views[index]
            if p_view == 0:
                continue
            posterior = (
                engine.joint_probability([statement.event, view_statement.event]) / p_view
            )
            gain = (posterior - prior) / prior
            if gain > best:
                best = gain
                best_secret = statement.rows
                best_views = view_statement.rows
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


#: ``perfbench/layers.py`` traces the search under this name: one function, two names.
_positive_leakage = positive_leakage


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
    the statements' boolean queries.  The probabilities are computed over
    the dictionary's own domain.  The statements are those of the Eq. (9)
    search, and each one's critical tuples are computed once, through
    ``critical_fn`` or else the process-wide
    :func:`~repro.core.criticality.default_cache`.
    """
    critical_fn = resolve_critical_fn(critical_fn)
    secret = as_query(secret, "secret")
    views = as_queries(views)

    schema = dictionary.schema
    engine = ExactEngine(dictionary, max_support_size=max_support_size)
    secrets, view_statements = _atomic_statements(
        secret, views, dictionary, max_secret_rows, max_view_rows
    )
    view_crits = [
        statement.critical_tuples(critical_fn, schema) for statement in view_statements
    ]

    epsilon = Fraction(0)
    for statement in secrets:
        secret_crit = statement.critical_tuples(critical_fn, schema)
        for view_statement, view_crit in zip(view_statements, view_crits):
            common = secret_crit & view_crit
            if not common:
                continue  # L_{s,v̄} is impossible: this pair adds nothing to ε
            conditioning = And((statement.event, view_statement.event))
            p_conditioning = engine.probability(conditioning)
            if p_conditioning == 0:
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
