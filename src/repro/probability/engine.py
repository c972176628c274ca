"""Exact probability computations over the instance space.

The engine computes probabilities of :class:`~repro.probability.events.Event`
objects exactly (with rational arithmetic) over the subsets of the
events' joint support — Eq. (2) of the paper.  Since the kernel rewrite,
:class:`ExactEngine` is a thin façade over the compiled
:class:`~repro.probability.kernel.ProbabilityKernel` shared per
dictionary: queries are compiled once into bitset mask tables, subset
probabilities come from meet-in-the-middle mass tables, and disconnected
supports are factorized into independent components.  Results are
equal, as :class:`~fractions.Fraction` values, to the seed
enumeration's, which :mod:`repro.reference` keeps as the oracle.
``max_support_size`` guards against accidental blow-ups; callers can
fall back to :mod:`repro.probability.sampling` for larger spaces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cq.query import ConjunctiveQuery
from .dictionary import Dictionary
from .events import Event
from .kernel import DEFAULT_MAX_SUPPORT, ProbabilityKernel

__all__ = ["ExactEngine", "DEFAULT_MAX_SUPPORT"]


class ExactEngine:
    """Exact probability engine over a dictionary (kernel-backed).

    Engines with the same dictionary object share one
    :class:`~repro.probability.kernel.ProbabilityKernel`, so compiled
    query tables and joint distributions are computed once per process
    regardless of how many engines are constructed.
    """

    def __init__(self, dictionary: Dictionary, max_support_size: Optional[int] = None):
        # The shared kernel holds its dictionary weakly; this strong
        # reference keeps it alive for as long as the engine is.
        self._dictionary = dictionary
        self._kernel = ProbabilityKernel.shared(dictionary)
        # None defers to the kernel defaults: DEFAULT_MAX_SUPPORT per
        # structural component, PREDICATE_MAX_SUPPORT per component that
        # needs the opaque-predicate fallback.  An explicit bound is
        # honoured verbatim, as the seed engine honoured its.
        self._max_support_size = max_support_size

    @property
    def dictionary(self) -> Dictionary:
        """The dictionary (domain + tuple probabilities) in use."""
        return self._dictionary

    @property
    def kernel(self) -> ProbabilityKernel:
        """The shared compiled kernel answering this engine's queries."""
        return self._kernel

    # -- probabilities ----------------------------------------------------------
    def probability(self, event: Event) -> Fraction:
        """``P[event]`` computed exactly."""
        return self._kernel.probability(event, max_support_size=self._max_support_size)

    def joint_probability(self, events: Sequence[Event]) -> Fraction:
        """``P[e1 ∧ e2 ∧ ...]`` computed exactly."""
        return self._kernel.joint_probability(
            events, max_support_size=self._max_support_size
        )

    def conditional_probability(self, event: Event, given: Event) -> Fraction:
        """``P[event | given]``; raises when ``P[given] = 0``."""
        return self._kernel.conditional_probability(
            event, given, max_support_size=self._max_support_size
        )

    def are_independent(self, left: Event, right: Event) -> bool:
        """Exact test of ``P[left ∧ right] = P[left]·P[right]``."""
        return self._kernel.are_independent(
            left, right, max_support_size=self._max_support_size
        )

    # -- query-answer distributions ---------------------------------------------
    def answer_distribution(
        self, query: ConjunctiveQuery
    ) -> Dict[FrozenSet[Tuple[object, ...]], Fraction]:
        """The full distribution of ``Q(I)``: answer set → probability (Eq. 2)."""
        return self._kernel.answer_distribution(
            query, max_support_size=self._max_support_size
        )

    def possible_answers(
        self, query: ConjunctiveQuery
    ) -> List[FrozenSet[Tuple[object, ...]]]:
        """All answers the query attains with non-zero structural possibility.

        "Structurally possible" means attained on *some* instance of the
        support's powerset, irrespective of the probabilities (matching
        the ∀s,v̄ quantification of Definition 4.1, which ranges over all
        possible answers).
        """
        return self._kernel.possible_answers(
            query, max_support_size=self._max_support_size
        )

    def joint_answer_distribution(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> Dict[Tuple[FrozenSet[Tuple[object, ...]], ...], Fraction]:
        """Joint distribution of several queries' answers."""
        return self._kernel.joint_answer_distribution(
            queries, max_support_size=self._max_support_size
        )

