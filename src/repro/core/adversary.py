"""The adversary's posterior beliefs after observing published views.

The introduction of the paper motivates partial disclosure with a
concrete attack: if Bob and Carol collude on the two projections of
``Employee(name, department, phone)`` and only four people work in each
department, the adversary can guess any person's phone number with a 25%
chance of success.  This module makes that calculation a first-class
operation: given the *actual published answers* ``v̄`` of the views, it
computes the adversary's posterior distribution over the secret's
answers and the induced guessing advantage.

Unlike the rest of :mod:`repro.core`, these functions condition on a
concrete observation, so they are what an owner uses *forensically*
("what does the recipient of this message now know?") rather than
*prospectively* (Theorem 4.5 security holds for every possible answer).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

from ..cq.query import ConjunctiveQuery
from ..cq.union import UnionQuery
from ..exceptions import SecurityAnalysisError
from ..probability.dictionary import Dictionary
from ..probability.engine import ExactEngine
from ..probability.events import And, QueryAnswerIs

__all__ = [
    "GuessingReport",
    "posterior_answer_distribution",
    "row_posteriors",
    "guessing_report",
]

Query = Union[ConjunctiveQuery, UnionQuery]
Row = Tuple[object, ...]


def _observed_distribution(
    secret: Query,
    views: Sequence[Query] | Query,
    view_answers: Sequence[Iterable[Row]] | Iterable[Row],
    dictionary: Dictionary,
    max_support_size: Optional[int],
) -> Tuple[Dict[Tuple[FrozenSet[Row], bool], Fraction], Fraction]:
    """The joint distribution of ``S(I)`` and ``V̄(I) = v̄``, and ``P[V̄(I) = v̄]``.

    One kernel distribution, keyed ``(secret answer, observed)``, gives
    every prior and posterior the functions below report.
    """
    if isinstance(views, (ConjunctiveQuery, UnionQuery)):
        views = [views]
        view_answers = [view_answers]  # type: ignore[list-item]
    views = list(views)
    view_answers = list(view_answers)
    if len(views) != len(view_answers):
        raise SecurityAnalysisError(
            "one published answer is required per view "
            f"({len(views)} views, {len(view_answers)} answers)"
        )
    observation = And(
        tuple(QueryAnswerIs(view, answer) for view, answer in zip(views, view_answers))
    )
    joint = ExactEngine(dictionary, max_support_size=max_support_size).joint_distribution(
        [secret], [observation]
    )
    evidence = sum(probability for (_, observed), probability in joint.items() if observed)
    if evidence == 0:
        raise SecurityAnalysisError(
            "the published view answers have probability zero under this dictionary"
        )
    return joint, evidence


def posterior_answer_distribution(
    secret: Query,
    views: Sequence[Query] | Query,
    view_answers: Sequence[Iterable[Row]] | Iterable[Row],
    dictionary: Dictionary,
    max_support_size: Optional[int] = None,
) -> Dict[FrozenSet[Row], Fraction]:
    """The adversary's posterior over full secret answers, ``P[S(I)=s | V̄(I)=v̄]``.

    ``view_answers`` gives the published answer of each view (a collection
    of rows per view).  The result maps each possible answer set of the
    secret to its posterior probability; answers with posterior zero are
    omitted.
    """
    joint, evidence = _observed_distribution(
        secret, views, view_answers, dictionary, max_support_size
    )
    return {
        answer: probability / evidence
        for (answer, observed), probability in joint.items()
        if observed and probability
    }


def row_posteriors(
    secret: Query,
    views: Sequence[Query] | Query,
    view_answers: Sequence[Iterable[Row]] | Iterable[Row],
    dictionary: Dictionary,
    max_support_size: Optional[int] = None,
) -> Dict[Row, Tuple[Fraction, Fraction]]:
    """Per secret row ``s``: ``(P[s ⊆ S(I)], P[s ⊆ S(I) | V̄(I)=v̄])``.

    This is the row-level view of the adversary's belief shift — the
    quantity behind the introduction's "guess the phone number with a 25%
    chance" argument and behind the leakage measure of Section 6.1.
    Rows are listed in ``repr`` order.
    """
    joint, evidence = _observed_distribution(
        secret, views, view_answers, dictionary, max_support_size
    )
    prior: Dict[Row, Fraction] = {}
    observed_mass: Dict[Row, Fraction] = {}
    for (answer, observed), probability in joint.items():
        for row in answer:
            prior[row] = prior.get(row, Fraction(0)) + probability
            if observed:
                observed_mass[row] = observed_mass.get(row, Fraction(0)) + probability
    return {
        row: (prior[row], observed_mass.get(row, Fraction(0)) / evidence)
        for row in sorted(prior, key=repr)
    }


@dataclass(frozen=True)
class GuessingReport:
    """The adversary's best guess about a secret row after the observation.

    Attributes
    ----------
    best_row:
        The secret row with the highest posterior probability of being in
        the secret's answer (``None`` when no row is possible).
    prior / posterior:
        The adversary's belief in that row before and after seeing the
        published answers.
    rows:
        The full per-row (prior, posterior) table.
    """

    best_row: Optional[Row]
    prior: Fraction
    posterior: Fraction
    rows: Dict[Row, Tuple[Fraction, Fraction]]

    @property
    def amplification(self) -> Optional[Fraction]:
        """``posterior / prior`` for the best row (``None`` when prior is 0)."""
        if self.prior == 0:
            return None
        return self.posterior / self.prior

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.best_row is None:
            return "the observation rules out every secret row"
        return (
            f"best guess {self.best_row!r}: prior {float(self.prior):.3f} -> "
            f"posterior {float(self.posterior):.3f}"
        )


def guessing_report(
    secret: Query,
    views: Sequence[Query] | Query,
    view_answers: Sequence[Iterable[Row]] | Iterable[Row],
    dictionary: Dictionary,
    restrict_to_rows: Optional[Iterable[Row]] = None,
    max_support_size: Optional[int] = None,
) -> GuessingReport:
    """How well can the adversary now guess a secret row?

    ``restrict_to_rows`` limits the candidate rows (e.g. "rows about this
    particular person"), matching the introduction's per-person guessing
    argument; by default every possible secret row competes.
    """
    table = row_posteriors(secret, views, view_answers, dictionary, max_support_size)
    if restrict_to_rows is not None:
        wanted = {tuple(row) for row in restrict_to_rows}
        table = {row: value for row, value in table.items() if row in wanted}
    best_row: Optional[Row] = None
    best = (Fraction(0), Fraction(0))
    for row, (prior, posterior) in sorted(table.items(), key=repr):
        if posterior > best[1]:
            best_row = row
            best = (prior, posterior)
    return GuessingReport(best_row=best_row, prior=best[0], posterior=best[1], rows=table)
