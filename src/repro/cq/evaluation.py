"""Evaluation of conjunctive queries over database instances.

Two engines share this module's public entry points, and the target
picks between them (:func:`_sql_engine` is the only place that does):

* ``sql`` — for a :class:`~repro.storage.sqlite.SQLiteFactStore`,
  :mod:`repro.cq.sql` compiles the join plans into parameterized
  sqlite3 statements and runs them against the store in place.  This is
  the engine for 10^5–10^6-fact stores the in-memory engine cannot hold
  comfortably.
* ``compiled`` — for every other target, :mod:`repro.cq.compiled` plans
  each query once (greedy join ordering, per-instance hash-index
  probes, slot-array bindings, earliest-point comparison checks).

Besides full evaluation, both engines answer row membership
(:func:`answer_contains`, which the criticality engine asks) and fact
deltas.  The batched delta of :func:`delta_apply_many` is the delta
computation; :func:`delta_apply` is its one-query form.  Only these two
write, and on a store they mutate it in place.  :func:`delta_changes`
asks Definition 4.4's question (the reference enumeration in
:mod:`repro.reference` asks it): on the compiled engine it is the lost
half of the batched delta for one removal, and on the sql engine a
read-only probe that excludes the fact with predicates.

The compiled engine accepts any fact iterable by materialising it into
an :class:`Instance` first — correct, but re-materialised per call.  The
seed backtracking evaluator survives as a test oracle in
:mod:`repro.reference`.

The answer of a query of arity ``k`` is a frozenset of ``k``-tuples; a
boolean query answers ``frozenset({()})`` when true and ``frozenset()``
when false (the two possible answers of an arity-0 query).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Sequence, Tuple

from ..obs import span
from ..relational.instance import Instance
from ..relational.tuples import Fact
from .compiled import STATS, plan_for
from .query import ConjunctiveQuery
from .terms import Variable, is_constant

__all__ = [
    "evaluate",
    "evaluate_boolean",
    "satisfying_assignments",
    "answer_tuple",
    "answer_contains",
    "delta_changes",
    "delta_apply",
    "delta_apply_many",
]

Assignment = Dict[Variable, object]


def _sql_engine(target):
    """The sql engine module when ``target`` is a SQLite store, else ``None``.

    A store must be evaluated in place: the compiled engine would
    materialise it and detach from it.  Every other target runs on the
    compiled engine.  A store can only exist once its class does, so
    in-memory work never pays for importing the sql engine.
    """
    # The module may be in sys.modules but still executing its body on
    # another thread; until the class exists, no store can either.
    storage = sys.modules.get("repro.storage.sqlite")
    store_type = getattr(storage, "SQLiteFactStore", None)
    if store_type is None or not isinstance(target, store_type):
        return None
    from . import sql

    return sql


def _memory(instance) -> Instance:
    """An in-memory instance over the target's facts.

    The compiled engine works on :class:`Instance`; any other fact
    iterable is materialised (never cached — stores are mutable).
    """
    if isinstance(instance, Instance):
        return instance
    return Instance(instance)


def satisfying_assignments(
    query: ConjunctiveQuery, instance: Instance
) -> Iterator[Assignment]:
    """Yield every assignment of the query's variables that satisfies it.

    The assignments are total over the query's body variables; the
    *set* of assignments is engine-independent (their order is not).
    For a :class:`~repro.cq.union.UnionQuery` the assignments of every
    disjunct are yielded in turn.
    """
    sql = _sql_engine(instance)
    if sql is not None:
        yield from sql.satisfying_assignments(query, instance)
        return
    instance = _memory(instance)
    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        for disjunct in disjuncts:
            yield from satisfying_assignments(disjunct, instance)
        return
    yield from plan_for(query).assignments(instance)


def answer_tuple(query: ConjunctiveQuery, assignment: Mapping[Variable, object]) -> Tuple[object, ...]:
    """The head tuple produced by one satisfying assignment."""
    values: List[object] = []
    for term in query.head:
        if is_constant(term):
            values.append(term.value)
        else:
            values.append(assignment[term])
    return tuple(values)


def evaluate(query: ConjunctiveQuery, instance: Instance) -> FrozenSet[Tuple[object, ...]]:
    """Evaluate a conjunctive query or a union of them (set semantics)."""
    # One span per top-level call (a union is one evaluation); past the
    # trace's span cap repeated calls fold into an aggregate row.
    with span("cq.evaluate"):
        return _evaluate(query, instance)


def _evaluate(query: ConjunctiveQuery, instance: Instance) -> FrozenSet[Tuple[object, ...]]:
    sql = _sql_engine(instance)
    if sql is not None:
        return sql.evaluate(query, instance)
    instance = _memory(instance)
    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        answers: set = set()
        for disjunct in disjuncts:
            answers |= _evaluate(disjunct, instance)
        return frozenset(answers)
    return plan_for(query).evaluate(instance)


def evaluate_boolean(query: ConjunctiveQuery, instance: Instance) -> bool:
    """Evaluate a boolean query; also works for non-boolean queries
    (true iff the answer is non-empty)."""
    with span("cq.evaluate"):
        return _evaluate_boolean(query, instance)


def _evaluate_boolean(query: ConjunctiveQuery, instance: Instance) -> bool:
    sql = _sql_engine(instance)
    if sql is not None:
        return sql.evaluate_boolean(query, instance)
    instance = _memory(instance)
    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        return any(_evaluate_boolean(disjunct, instance) for disjunct in disjuncts)
    return plan_for(query).evaluate_boolean(instance)


def answer_contains(
    query: ConjunctiveQuery, instance: Instance, row: Sequence[object]
) -> bool:
    """Decide ``row ∈ Q(instance)`` without materialising the full answer.

    The head slots are seeded with the row's values
    (:meth:`~repro.cq.compiled.CompiledPlan.derives_row`), so the search
    is keyed to that single answer.  Rows of the wrong arity simply
    return ``False``.
    """
    row = tuple(row)
    sql = _sql_engine(instance)
    if sql is not None:
        return sql.answer_contains(query, instance, row)
    instance = _memory(instance)
    disjuncts = getattr(query, "disjuncts", None) or (query,)
    return any(plan_for(disjunct).derives_row(instance, row) for disjunct in disjuncts)


def delta_changes(query: ConjunctiveQuery, instance: Instance, fact: Fact) -> bool:
    """Decide ``Q(instance) ≠ Q(instance − fact)`` (the criticality test).

    Conjunctive queries and their unions are monotone, so removing a
    fact can only lose rows: this is the lost half of the batched delta
    (:func:`delta_apply`) for the one removal, and it never mutates the
    target.  Only answer rows with a derivation using the fact are
    re-checked, and the shrunken instance is built only once such a
    candidate exists.  A fact outside the instance, or matching no
    subgoal, costs nothing.
    """
    with span("cq.delta"):
        sql = _sql_engine(instance)
        if sql is not None:
            return sql.delta_changes(query, instance, fact)
        STATS.bump("delta_calls")
        before = _memory(instance)
        if fact not in before:
            return False
        _, lost = _compiled_change(query, before, lambda: before.remove(fact), (), (fact,))
        return bool(lost)


def delta_apply(
    query: ConjunctiveQuery,
    instance: Instance,
    added: Sequence[Fact] = (),
    removed: Sequence[Fact] = (),
) -> Tuple[object, FrozenSet[Tuple[object, ...]], FrozenSet[Tuple[object, ...]]]:
    """Apply a batched fact delta and report the answer change.

    The post-state is ``after = (instance − removed) ∪ added`` (a fact
    listed in both sets ends up present).  Returns ``(after, gained,
    lost)`` where ``gained = Q(after) − Q(instance)`` and ``lost =
    Q(instance) − Q(after)``: the one-query form of
    :func:`delta_apply_many`.  A
    :class:`~repro.storage.sqlite.SQLiteFactStore` target is mutated
    *in place* and returned; for any other target ``after`` is a new
    :class:`~repro.relational.instance.Instance` (derived through the
    cache-patching single-fact ``add``/``remove``).

    The compiled engine is semi-naive throughout: only answer rows with
    a derivation using a changed fact are ever re-checked — removal
    candidates over the pre-state, insertion candidates over the
    post-state — so an untouched query costs nothing beyond the
    subgoal-to-fact matching.
    """
    with span("cq.delta"):
        after, ((gained, lost),) = _delta_apply_many(
            (query,), instance, tuple(added), tuple(removed)
        )
        return after, gained, lost


def delta_apply_many(
    queries: Sequence[ConjunctiveQuery],
    instance: Instance,
    added: Sequence[Fact] = (),
    removed: Sequence[Fact] = (),
) -> Tuple[
    object,
    List[Tuple[FrozenSet[Tuple[object, ...]], FrozenSet[Tuple[object, ...]]]],
]:
    """Apply one batched fact delta shared by many queries.

    The state advances exactly once — one patched instance chain, or one
    in-place store mutation — and every query's ``(gained, lost)`` change
    is computed against that single delta.  Returns ``(after, changes)``
    with ``changes[i]`` the i-th query's answer change; the state
    semantics (in-place store vs. patched instance) match
    :func:`delta_apply`.  This is the primitive a live audit session
    uses: it classifies which of its tracked queries a delta can touch
    and passes only those here, so untouched queries cost nothing at all.
    """
    with span("cq.delta"):
        return _delta_apply_many(tuple(queries), instance, tuple(added), tuple(removed))


def _delta_apply_many(
    queries: Tuple[ConjunctiveQuery, ...],
    instance: Instance,
    added: Tuple[Fact, ...],
    removed: Tuple[Fact, ...],
):
    sql = _sql_engine(instance)
    if sql is not None:
        return sql.delta_apply_many(queries, instance, added, removed)
    STATS.bump("delta_calls")
    before = _memory(instance)
    after, truly_added, truly_removed = _memory_delta(before, added, removed)
    changes = [
        _compiled_change(query, before, lambda: after, truly_added, truly_removed)
        for query in queries
    ]
    return after, changes


def _memory_delta(
    before: Instance, added: Tuple[Fact, ...], removed: Tuple[Fact, ...]
) -> Tuple[Instance, List[Fact], List[Fact]]:
    """Advance an in-memory instance through one batched delta.

    Returns ``(after, truly_added, truly_removed)`` where the fact lists
    are deduplicated and reduced to actual state changes (a fact listed
    in both sets ends up present, so it is neither).
    """
    added_set = set(added)
    truly_removed = [
        f for f in dict.fromkeys(removed) if f in before and f not in added_set
    ]
    truly_added = [f for f in dict.fromkeys(added) if f not in before]
    after = before
    for fact in truly_removed:
        after = after.remove(fact)
    for fact in truly_added:
        after = after.add(fact)
    return after, truly_added, truly_removed


def _compiled_change(
    query: ConjunctiveQuery,
    before: Instance,
    post_state: Callable[[], Instance],
    truly_added: Sequence[Fact],
    truly_removed: Sequence[Fact],
) -> Tuple[FrozenSet[Tuple[object, ...]], FrozenSet[Tuple[object, ...]]]:
    """``(gained, lost)`` of one query across a pre-computed delta.

    ``post_state`` returns the instance after the delta.  It is called
    only once a removal candidate or an added fact needs it, so a
    removal no derivation uses never builds the post-state.
    """
    disjuncts = getattr(query, "disjuncts", None) or (query,)
    # Removal candidates are in Q(before) by construction; they are lost
    # iff nothing re-derives them over the post-state.
    lost_candidates: set = set()
    for fact in truly_removed:
        for disjunct in disjuncts:
            lost_candidates.update(plan_for(disjunct).delta_candidates(before, fact))
    if not lost_candidates and not truly_added:
        return frozenset(), frozenset()
    after = post_state()
    lost = frozenset(
        row
        for row in lost_candidates
        if not any(plan_for(d).derives_row(after, row) for d in disjuncts)
    )
    # Insertion candidates are in Q(after) by construction; they are
    # gained iff they were not derivable over the pre-state.  A row seen
    # among the removal candidates is in Q(before), hence never gained.
    gained: set = set()
    gained_checked: set = set()
    for fact in truly_added:
        for disjunct in disjuncts:
            for row in plan_for(disjunct).delta_candidates(after, fact):
                if row in lost_candidates or row in gained_checked:
                    continue
                gained_checked.add(row)
                if not any(plan_for(d).derives_row(before, row) for d in disjuncts):
                    gained.add(row)
    return frozenset(gained), lost
