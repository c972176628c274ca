"""Compiled, index-driven evaluation of conjunctive queries.

:class:`CompiledPlan` executes the plans of :mod:`repro.cq.plan` against
:class:`~repro.relational.instance.Instance` objects:

* each subgoal becomes a **probe** of the instance's lazy hash index
  (:meth:`~repro.relational.instance.Instance.index`) on the positions
  bound at that point of the join order, instead of a scan of every fact
  of the relation;
* variables are bound through a flat **slot array** that is extended and
  undone in place — the naive evaluator's per-candidate dict copy is
  gone entirely;
* comparison predicates run at the earliest step where both operands are
  bound, pruning the subtree below a failing candidate.

On top of plain evaluation the plan answers the two restricted questions
the criticality engines ask thousands of times per search:

* :meth:`CompiledPlan.derives_row` — "is this one answer row still
  derivable?" — seeds the head slots before planning, so the probes are
  keyed by the answer's constants;
* :meth:`CompiledPlan.delta_without` — "does removing one fact change
  the answer?" — the semi-naive delta: only derivations that *use* the
  removed fact are re-derived (one plan variant per body atom unifying
  with the fact, that atom pinned and excluded), and each candidate row
  is then re-checked on the shrunken instance via ``derives_row``.  A
  fact unifying with no subgoal costs nothing at all.

Plans are cached on the query object itself (queries are immutable), so
re-evaluating a query held by a session, kernel or engine never replans.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import EvaluationError
from ..obs.counters import StatCounters
from ..relational.instance import INDEX_STATS, Instance
from ..relational.tuples import Fact
from .atoms import Atom
from .plan import PlanSteps, build_steps, slot_assignment
from .query import ConjunctiveQuery
from .terms import Variable, is_constant

__all__ = [
    "CompiledPlan",
    "plan_for",
    "evaluation_stats",
    "reset_evaluation_stats",
    "STATS",
]


class _Unbound:
    __repr__ = lambda self: "<unbound>"  # noqa: E731  # pragma: no cover


_UNBOUND = _Unbound()

#: Process-wide evaluator counters (monotone; see :func:`evaluation_stats`).
#: A :class:`~repro.obs.counters.StatCounters`: reads stay plain dict
#: access, but increments go through ``.bump()`` so counts survive
#: concurrent evaluation on server worker threads.
STATS = StatCounters(
    (
        "plans_compiled",
        "plan_cache_hits",
        "variant_plans",
        "compiled_evaluations",
        "row_checks",
        "delta_calls",
        "delta_unification_skips",
        "index_probes",
        "relation_scans",
    )
)

#: Attribute under which a query's plan is cached on the query object.
_PLAN_ATTRIBUTE = "_compiled_plan"


def plan_for(query: ConjunctiveQuery) -> "CompiledPlan":
    """The compiled plan of a conjunctive query (cached on the query).

    Queries are immutable, so the plan is compiled once per query object
    and stored on it (outside the dataclass's equality/hash fields); it
    lives exactly as long as the query does.
    """
    plan = getattr(query, _PLAN_ATTRIBUTE, None)
    if plan is None:
        STATS.bump("plans_compiled")
        plan = CompiledPlan(query)
        try:
            object.__setattr__(query, _PLAN_ATTRIBUTE, plan)
        except (AttributeError, TypeError):  # pragma: no cover - exotic subclass
            pass
    else:
        STATS.bump("plan_cache_hits")
    return plan


class CompiledPlan:
    """A conjunctive query compiled for indexed, slot-based evaluation."""

    __slots__ = ("query", "slot_of", "slot_count", "slot_variables", "head_parts", "_variants")

    def __init__(self, query: ConjunctiveQuery):
        if getattr(query, "disjuncts", None) is not None:
            raise EvaluationError(
                "CompiledPlan compiles a single conjunctive query; evaluate a "
                "union through repro.cq.evaluation, which dispatches per disjunct"
            )
        self.query = query
        self.slot_of: Dict[Variable, int] = slot_assignment(query)
        self.slot_count = len(self.slot_of)
        self.slot_variables: Tuple[Variable, ...] = tuple(
            sorted(self.slot_of, key=self.slot_of.__getitem__)
        )
        # Head layout as (slot, constant) pairs; slot is None for constants.
        self.head_parts: Tuple[Tuple[Optional[int], object], ...] = tuple(
            (None, term.value) if is_constant(term) else (self.slot_of[term], None)
            for term in query.head
        )
        self._variants: Dict[Tuple[FrozenSet[int], Optional[int]], PlanSteps] = {}

    # -- plan variants ---------------------------------------------------------
    def _steps(
        self, seeded: FrozenSet[int] = frozenset(), excluded: Optional[int] = None
    ) -> PlanSteps:
        """The plan variant for one (seeded slots, excluded atom) pair.

        Variants are memoized: the seed *pattern* depends only on which
        head/atom slots are pre-bound, not on the bound values, so every
        ``derives_row``/``delta_without`` call of a given shape reuses
        one ordering.
        """
        key = (seeded, excluded)
        steps = self._variants.get(key)
        if steps is None:
            if seeded or excluded is not None:
                STATS.bump("variant_plans")
            steps = self._variants[key] = build_steps(
                self.query, self.slot_of, seeded, excluded
            )
        return steps

    # -- runtime ---------------------------------------------------------------
    def _run(
        self, steps: PlanSteps, instance: Instance, slots: List[object]
    ) -> Iterator[List[object]]:
        """Enumerate satisfying slot arrays (yielded object is shared!).

        The yielded list is the live assignment array — callers must
        extract what they need before advancing the iterator.
        """
        for comparison in steps.pre_comparisons:
            if not comparison.evaluate(slots):
                return
        plan_steps = steps.steps
        if not plan_steps:
            yield slots
            return
        last_depth = len(plan_steps) - 1

        def extend(depth: int) -> Iterator[List[object]]:
            step = plan_steps[depth]
            if step.key_positions:
                STATS.bump("index_probes")
                key = tuple(
                    value if slot is None else slots[slot]
                    for slot, value in step.key_parts
                )
                candidates = instance.index(step.relation, step.key_positions).get(
                    key, ()
                )
            else:
                STATS.bump("relation_scans")
                candidates = instance.relation(step.relation)
            arity = step.arity
            bind_ops = step.bind_ops
            comparisons = step.comparisons
            at_leaf = depth == last_depth
            for fact in candidates:
                values = fact.values
                if len(values) != arity:
                    continue
                bound_here: List[int] = []
                ok = True
                for position, slot, check in bind_ops:
                    value = values[position]
                    if check:
                        if slots[slot] != value:
                            ok = False
                            break
                    else:
                        slots[slot] = value
                        bound_here.append(slot)
                if ok:
                    for comparison in comparisons:
                        if not comparison.evaluate(slots):
                            ok = False
                            break
                if ok:
                    if at_leaf:
                        yield slots
                    else:
                        yield from extend(depth + 1)
                for slot in bound_here:
                    slots[slot] = _UNBOUND

        yield from extend(0)

    def _head_row(self, slots: List[object]) -> Tuple[object, ...]:
        return tuple(
            value if slot is None else slots[slot] for slot, value in self.head_parts
        )

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, instance: Instance) -> FrozenSet[Tuple[object, ...]]:
        """The query's answer on ``instance`` (set semantics)."""
        STATS.bump("compiled_evaluations")
        slots = [_UNBOUND] * self.slot_count
        return frozenset(
            self._head_row(s) for s in self._run(self._steps(), instance, slots)
        )

    def evaluate_boolean(self, instance: Instance) -> bool:
        """True iff the query has at least one satisfying assignment."""
        STATS.bump("compiled_evaluations")
        slots = [_UNBOUND] * self.slot_count
        for _ in self._run(self._steps(), instance, slots):
            return True
        return False

    def assignments(self, instance: Instance) -> Iterator[Dict[Variable, object]]:
        """Satisfying assignments as dicts, total over the body variables."""
        STATS.bump("compiled_evaluations")
        slots = [_UNBOUND] * self.slot_count
        variables = self.slot_variables
        for s in self._run(self._steps(), instance, slots):
            yield {variable: s[i] for i, variable in enumerate(variables)}

    # -- restricted questions (the criticality hot path) -------------------------
    def derives_row(self, instance: Instance, row: Sequence[object]) -> bool:
        """Decide ``row ∈ Q(instance)`` by head-seeded evaluation.

        The head slots are bound to the row's values before planning, so
        the probes are keyed by them — no other answer row is derived.
        Rows of the wrong arity, conflicting with a head constant or
        binding a repeated head variable inconsistently are never
        derivable and return ``False`` immediately.
        """
        row = tuple(row)
        if len(row) != len(self.head_parts):
            return False
        STATS.bump("row_checks")
        slots: List[object] = [_UNBOUND] * self.slot_count
        seeded: set = set()
        for (slot, value), wanted in zip(self.head_parts, row):
            if slot is None:
                if value != wanted:
                    return False
            elif slots[slot] is _UNBOUND:
                slots[slot] = wanted
                seeded.add(slot)
            elif slots[slot] != wanted:
                return False
        for _ in self._run(self._steps(frozenset(seeded)), instance, slots):
            return True
        return False

    def _fact_seed(self, atom: Atom, fact: Fact) -> Optional[Dict[int, object]]:
        """Slot bindings mapping ``atom`` onto ``fact`` (None on mismatch)."""
        if atom.relation != fact.relation or atom.arity != fact.arity:
            return None
        seed: Dict[int, object] = {}
        for term, value in zip(atom.terms, fact.values):
            if is_constant(term):
                if term.value != value:
                    return None
            else:
                slot = self.slot_of[term]
                bound = seed.get(slot, _UNBOUND)
                if bound is _UNBOUND:
                    seed[slot] = value
                elif bound != value:
                    return None
        return seed

    def delta_candidates(
        self, instance: Instance, fact: Fact
    ) -> Iterator[Tuple[object, ...]]:
        """Answer rows with some derivation over ``instance`` using ``fact``.

        The semi-naive restriction: for each body atom unifying with the
        fact, a plan variant pins that atom to the fact (its variables
        seeded, the atom itself excluded) and enumerates the remaining
        subgoals over the full instance.  Every row of
        ``Q(instance) − Q(instance − fact)`` appears among the yielded
        candidates; rows may repeat across pinned atoms.
        """
        if fact not in instance:
            return
        matched = False
        for j, atom in enumerate(self.query.body):
            seed = self._fact_seed(atom, fact)
            if seed is None:
                continue
            matched = True
            slots: List[object] = [_UNBOUND] * self.slot_count
            for slot, value in seed.items():
                slots[slot] = value
            steps = self._steps(frozenset(seed), excluded=j)
            for s in self._run(steps, instance, slots):
                yield self._head_row(s)
        if not matched:
            STATS.bump("delta_unification_skips")

    def delta_without(self, instance: Instance, fact: Fact) -> bool:
        """Decide ``Q(instance) ≠ Q(instance − fact)`` by delta evaluation.

        Conjunctive queries are monotone, so the answer can only lose
        rows: it changes iff some candidate row (a derivation using the
        fact) is no longer derivable once the fact is removed.  Removing
        a fact outside the instance, or one unifying with no subgoal,
        returns ``False`` without evaluating anything.
        """
        STATS.bump("delta_calls")
        without: Optional[Instance] = None
        verdicts: Dict[Tuple[object, ...], bool] = {}
        for row in self.delta_candidates(instance, fact):
            vanished = verdicts.get(row)
            if vanished is None:
                if without is None:
                    without = instance.remove(fact)
                vanished = not self.derives_row(without, row)
                verdicts[row] = vanished
            if vanished:
                return True
        return False

    def delta_with(self, instance: Instance, fact: Fact) -> bool:
        """Decide ``Q(instance ∪ {fact}) ≠ Q(instance)`` by delta evaluation.

        The insertion mirror of :meth:`delta_without`: monotone queries
        can only *gain* rows when a fact is inserted, and every gained
        row has a derivation using the new fact, so only the pinned-atom
        candidates over the grown instance are re-checked against the
        original.  Inserting a fact already present, or one unifying
        with no subgoal, returns ``False`` without evaluating anything.
        """
        STATS.bump("delta_calls")
        if fact in instance:
            return False
        with_fact = instance.add(fact)
        verdicts: Dict[Tuple[object, ...], bool] = {}
        for row in self.delta_candidates(with_fact, fact):
            appeared = verdicts.get(row)
            if appeared is None:
                appeared = not self.derives_row(instance, row)
                verdicts[row] = appeared
            if appeared:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledPlan({self.query!r})"


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
def evaluation_stats() -> Dict[str, object]:
    """One JSON-serialisable snapshot of the evaluator counters.

    Includes the compiled-plan and delta counters above, the sql-engine
    and storage counters, and the instance-index build/reuse counts from
    the relational layer.  Counters are process-wide, monotone and bumped
    under a lock (:class:`~repro.obs.counters.StatCounters`), so counts
    are exact even under concurrent evaluation on server worker
    threads.  Reset with :func:`reset_evaluation_stats` (tests and
    benchmarks only).
    """
    from .sql import SQL_STATS  # lazy: sql imports plan/compiled machinery
    from ..storage.sqlite import STORAGE_STATS

    document: Dict[str, object] = dict(STATS)
    document["index_builds"] = INDEX_STATS["builds"]
    document["index_reuses"] = INDEX_STATS["reuses"]
    document["index_patched"] = INDEX_STATS["patched"]
    document.update(SQL_STATS)
    for key, value in STORAGE_STATS.items():
        document[f"storage_{key}"] = value
    return document


def reset_evaluation_stats() -> None:
    """Zero every evaluator, SQL-backend, storage and index counter
    (tests/benchmarks)."""
    from .sql import SQL_STATS  # lazy: sql imports plan/compiled machinery
    from ..storage.sqlite import reset_storage_stats

    STATS.reset()
    INDEX_STATS.reset()
    SQL_STATS.reset()
    reset_storage_stats()
