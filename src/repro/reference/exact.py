"""The seed exact enumeration engine, kept as the probability oracle.

Every question re-evaluates the queries on each of the ``2^n``
sub-instances of the support and recomputes the Eq. (1) product per
subset.  The compiled :class:`~repro.probability.kernel.ProbabilityKernel`
(also named :class:`~repro.probability.engine.ExactEngine`) must agree
with it Fraction-for-Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from ..cq.evaluation import evaluate
from ..cq.query import ConjunctiveQuery
from ..cq.witness import query_support
from ..exceptions import IntractableAnalysisError, ProbabilityError
from ..probability.dictionary import Dictionary
from ..probability.events import Event
from ..relational.instance import Instance
from ..relational.tuples import Fact

__all__ = ["NaiveExactEngine", "SEED_MAX_SUPPORT"]

#: The seed engine's original support bound.  :class:`NaiveExactEngine`
#: keeps it: per-subset re-evaluation gets none of the compiled speedup,
#: so the raised kernel default would gut its blow-up guard.
SEED_MAX_SUPPORT = 22


class NaiveExactEngine:
    """The seed enumeration engine, kept as the cross-validation reference.

    Every question re-evaluates the queries on each of the ``2^n``
    sub-instances and recomputes the Eq. (1) product per subset.  It is
    deliberately faithful to the paper's exponential definitions; the
    compiled kernel must agree with it Fraction-for-Fraction, which is
    exactly what ``tests/test_exact_kernel.py`` and
    ``benchmarks/bench_exact_kernel.py`` check.
    """

    def __init__(self, dictionary: Dictionary, max_support_size: int = SEED_MAX_SUPPORT):
        self._dictionary = dictionary
        self._max_support_size = max_support_size

    @property
    def dictionary(self) -> Dictionary:
        """The dictionary (domain + tuple probabilities) in use."""
        return self._dictionary

    # -- support handling ------------------------------------------------------
    def _support_of(self, events: Sequence[Event]) -> List[Fact]:
        schema = self._dictionary.schema
        supports = [event.support(schema) for event in events]
        if any(s is None for s in supports):
            facts = self._dictionary.tuple_space()
        else:
            union: set[Fact] = set()
            for s in supports:
                union |= s  # type: ignore[arg-type]
            # key=repr: analysis domains may mix numeric and string
            # constants, which Python refuses to order directly.
            facts = sorted(union, key=repr)
        if len(facts) > self._max_support_size:
            raise IntractableAnalysisError(
                f"event support has {len(facts)} facts; exact enumeration of "
                f"2^{len(facts)} sub-instances exceeds the configured bound "
                f"({self._max_support_size}); use MonteCarloSampler instead",
                size_estimate=2 ** len(facts),
            )
        return facts

    def _sub_instances(self, facts: Sequence[Fact]) -> Iterator[Instance]:
        for r in range(len(facts) + 1):
            for combo in itertools.combinations(facts, r):
                yield Instance(combo)

    # -- probabilities ----------------------------------------------------------
    def probability(self, event: Event) -> Fraction:
        """``P[event]`` computed exactly."""
        return self.joint_probability([event])

    def joint_probability(self, events: Sequence[Event]) -> Fraction:
        """``P[e1 ∧ e2 ∧ ...]`` computed exactly."""
        facts = self._support_of(list(events))
        total = Fraction(0)
        for instance in self._sub_instances(facts):
            if all(event.occurs(instance) for event in events):
                total += self._dictionary.instance_probability(instance, over_facts=facts)
        return total

    def conditional_probability(self, event: Event, given: Event) -> Fraction:
        """``P[event | given]``; raises when ``P[given] = 0``."""
        joint = self.joint_probability([event, given])
        marginal = self.probability(given)
        if marginal == 0:
            raise ProbabilityError(
                f"cannot condition on event with probability zero: {given.describe()}"
            )
        return joint / marginal

    def are_independent(self, left: Event, right: Event) -> bool:
        """Exact test of ``P[left ∧ right] = P[left]·P[right]``."""
        joint = self.joint_probability([left, right])
        return joint == self.probability(left) * self.probability(right)

    # -- query-answer distributions ---------------------------------------------
    def answer_distribution(
        self, query: ConjunctiveQuery
    ) -> Dict[FrozenSet[Tuple[object, ...]], Fraction]:
        """The full distribution of ``Q(I)``: answer set → probability (Eq. 2)."""
        schema = self._dictionary.schema
        facts = sorted(query_support(query, schema), key=repr)
        if len(facts) > self._max_support_size:
            raise IntractableAnalysisError(
                f"query support has {len(facts)} facts; distribution enumeration "
                f"exceeds the configured bound ({self._max_support_size})",
                size_estimate=2 ** len(facts),
            )
        distribution: Dict[FrozenSet[Tuple[object, ...]], Fraction] = {}
        for instance in self._sub_instances(facts):
            answer = evaluate(query, instance)
            probability = self._dictionary.instance_probability(instance, over_facts=facts)
            distribution[answer] = distribution.get(answer, Fraction(0)) + probability
        return distribution

    def possible_answers(
        self, query: ConjunctiveQuery
    ) -> List[FrozenSet[Tuple[object, ...]]]:
        """All answers the query attains with non-zero structural possibility."""
        schema = self._dictionary.schema
        facts = sorted(query_support(query, schema), key=repr)
        if len(facts) > self._max_support_size:
            raise IntractableAnalysisError(
                f"query support has {len(facts)} facts; answer enumeration "
                f"exceeds the configured bound ({self._max_support_size})",
                size_estimate=2 ** len(facts),
            )
        seen: set[FrozenSet[Tuple[object, ...]]] = set()
        ordered: List[FrozenSet[Tuple[object, ...]]] = []
        for instance in self._sub_instances(facts):
            answer = evaluate(query, instance)
            if answer not in seen:
                seen.add(answer)
                ordered.append(answer)
        return ordered

    def joint_answer_distribution(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> Dict[Tuple[FrozenSet[Tuple[object, ...]], ...], Fraction]:
        """Joint distribution of several queries' answers."""
        schema = self._dictionary.schema
        union: set[Fact] = set()
        for query in queries:
            union |= query_support(query, schema)
        facts = sorted(union, key=repr)
        if len(facts) > self._max_support_size:
            raise IntractableAnalysisError(
                f"joint support has {len(facts)} facts; enumeration exceeds the "
                f"configured bound ({self._max_support_size})",
                size_estimate=2 ** len(facts),
            )
        distribution: Dict[Tuple[FrozenSet[Tuple[object, ...]], ...], Fraction] = {}
        for instance in self._sub_instances(facts):
            key = tuple(evaluate(query, instance) for query in queries)
            probability = self._dictionary.instance_probability(instance, over_facts=facts)
            distribution[key] = distribution.get(key, Fraction(0)) + probability
        return distribution
