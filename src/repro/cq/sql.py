"""Compilation of conjunctive-query join plans into parameterized SQL.

The evaluation engine of a :class:`~repro.storage.sqlite.SQLiteFactStore`
target (:mod:`repro.cq.evaluation` dispatches every store here) pushes
query evaluation into sqlite3 — the practical path for database-security
analyses at the scale the paper's hospital/census scenarios describe,
where the in-memory engine stops fitting.  One :class:`SQLPlan` is
compiled per query object (cached on the query, exactly like
:func:`repro.cq.compiled.plan_for`):

* every body atom becomes a table alias over its ``(relation, arity)``
  table in a :class:`~repro.storage.sqlite.SQLiteFactStore`;
* constants become parameterized equality predicates, repeated
  variables become join predicates against the variable's first
  occurrence column, and comparison predicates translate operator-for-
  operator (the spellings coincide);
* the join planner's probe keys (:func:`repro.cq.plan.build_steps`)
  become **covering-index requests** the store satisfies once per
  ``(table, positions)`` pair, so sqlite's planner has the same access
  paths the compiled engine builds as hash indexes.

The criticality hot path is answered with *delta-seeded SQL* rather
than a copied store: ``answer_contains`` seeds the head columns with
the row's values, and ``delta_changes`` re-derives only candidate rows
whose derivations use the removed fact (the pinned-atom variants of the
compiled engine, expressed as equality predicates) and re-checks each
against ``Q(I − t)`` by *excluding* the fact with per-alias
``NOT (tᵢ.c0 = ? AND …)`` predicates — no second store, no reload.

Known divergence: SQLite totally orders values across storage classes,
so an order comparison (``<``/``<=``/``>``/``>=``) between, say, an int
and a str silently decides where the Python engines raise
``QueryError``.  Order predicates over type-uniform columns — the only
ones with well-defined answers — agree with the compiled engine.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .. import faults
from ..exceptions import EvaluationError, QueryError, ReproError
from ..obs import span
from ..obs.counters import StatCounters
from ..relational.tuples import Fact
from ..storage.sqlite import SQLiteFactStore
from .atoms import COMPARISON_OPS
from .plan import build_steps, slot_assignment
from .query import ConjunctiveQuery
from .terms import Variable, is_constant

__all__ = [
    "SQLPlan",
    "sql_plan_for",
    "SQL_STATS",
    "evaluate",
    "evaluate_boolean",
    "satisfying_assignments",
    "answer_contains",
    "delta_changes",
    "delta_with",
    "delta_apply",
    "delta_apply_many",
]

#: Process-wide SQL-backend counters (monotone; surfaced through
#: :func:`repro.cq.evaluation_stats`).  A
#: :class:`~repro.obs.counters.StatCounters`: bumped through ``.bump()``
#: so counts survive concurrent evaluation on worker threads.
SQL_STATS = StatCounters(
    (
        "sql_plans_compiled",
        "sql_plan_cache_hits",
        "sql_statements_executed",
        "sql_rows_fetched",
        "sql_delta_calls",
        "sql_fallbacks",
        "sql_io_fallbacks",
    )
)


class UnstorableError(EvaluationError):
    """A value in the query or a probed fact cannot live in a SQL store.

    sqlite holds int, float and str; queries and facts may also carry
    *symbolic* values (labeled nulls such as the asymptotic engine's
    fresh blocks) that only exist in memory.  No stored row can match
    such a value, so the public entry points catch this and answer on
    the compiled engine over the materialised store — counted in
    ``SQL_STATS["sql_fallbacks"]``, never silent.
    """

#: Attribute under which a query's SQL plan is cached on the query object.
_SQL_PLAN_ATTRIBUTE = "_sql_plan"


def sql_plan_for(query: ConjunctiveQuery) -> "SQLPlan":
    """The SQL plan of a conjunctive query (cached on the query object)."""
    plan = getattr(query, _SQL_PLAN_ATTRIBUTE, None)
    if plan is None:
        SQL_STATS.bump("sql_plans_compiled")
        plan = SQLPlan(query)
        try:
            object.__setattr__(query, _SQL_PLAN_ATTRIBUTE, plan)
        except (AttributeError, TypeError):  # pragma: no cover - exotic subclass
            pass
    else:
        SQL_STATS.bump("sql_plan_cache_hits")
    return plan


def _execute(
    store: SQLiteFactStore, sql: str, params: Sequence[object]
) -> List[Tuple[object, ...]]:
    for rule in faults.fire("sql.execute"):
        faults.perform(rule)
    SQL_STATS.bump("sql_statements_executed")
    with span("sql.execute") as sp:
        rows = store.execute(sql, params)
        if sp:
            sp.set("rows", len(rows))
    SQL_STATS.bump("sql_rows_fetched", len(rows))
    return rows


class SQLPlan:
    """A conjunctive query compiled to parameterized SQL text.

    The plan is store-independent: table names are resolved per call
    (different stores map the same relation to different physical
    tables), everything else — the alias layout, join/constant
    predicates, parameter order, probe-key index requests — is fixed at
    compile time.
    """

    __slots__ = (
        "query",
        "slot_of",
        "slot_variables",
        "atom_tables",
        "conditions",
        "params",
        "column_of",
        "head_parts",
        "constant_comparisons",
        "index_requests",
    )

    def __init__(self, query: ConjunctiveQuery):
        if getattr(query, "disjuncts", None) is not None:
            raise EvaluationError(
                "SQLPlan compiles a single conjunctive query; evaluate a union "
                "through repro.cq.evaluation, which dispatches per disjunct"
            )
        self.query = query
        self.slot_of: Dict[Variable, int] = slot_assignment(query)
        self.slot_variables: Tuple[Variable, ...] = tuple(
            sorted(self.slot_of, key=self.slot_of.__getitem__)
        )
        #: (relation, arity) per body atom, aliased ``t{i}``.
        self.atom_tables: Tuple[Tuple[str, int], ...] = tuple(
            (atom.relation, atom.arity) for atom in query.body
        )

        conditions: List[str] = []
        params: List[object] = []
        column_of: Dict[int, str] = {}  # slot -> first-occurrence column
        for i, atom in enumerate(query.body):
            for position, term in enumerate(atom.terms):
                column = f"t{i}.c{position}"
                if is_constant(term):
                    conditions.append(f"{column} = ?")
                    params.append(term.value)
                else:
                    slot = self.slot_of[term]
                    first = column_of.get(slot)
                    if first is None:
                        column_of[slot] = column
                    else:
                        conditions.append(f"{column} = {first}")

        constant_comparisons = []
        for comparison in query.comparisons:
            if not comparison.variables:
                # Both sides constant: evaluated lazily in Python at
                # execution time, mirroring the other engines (an
                # unsatisfiable body must never surface a type error).
                constant_comparisons.append(comparison)
                continue
            left, params_left = self._side(comparison.left, column_of)
            right, params_right = self._side(comparison.right, column_of)
            conditions.append(f"{left} {comparison.op} {right}")
            params.extend(params_left + params_right)

        for value in params:
            if not isinstance(value, (int, float, str)):
                raise UnstorableError(
                    f"query constant {value!r} of type "
                    f"{type(value).__name__} cannot be bound to SQL"
                )
        self.conditions: Tuple[str, ...] = tuple(conditions)
        self.params: Tuple[object, ...] = tuple(params)
        self.column_of = column_of
        self.constant_comparisons = tuple(constant_comparisons)
        # Head layout as (slot, constant) pairs; slot is None for constants.
        self.head_parts: Tuple[Tuple[Optional[int], object], ...] = tuple(
            (None, term.value) if is_constant(term) else (self.slot_of[term], None)
            for term in query.head
        )
        self.index_requests = self._derive_index_requests()

    def _side(
        self, term, column_of: Dict[int, str]
    ) -> Tuple[str, List[object]]:
        if is_constant(term):
            return "?", [term.value]
        return column_of[self.slot_of[term]], []

    def _derive_index_requests(self) -> Tuple[Tuple[str, int, Tuple[int, ...]], ...]:
        """Covering-index requests from the join planner's probe keys.

        Two plan shapes drive the store's indexes: the base ordering
        (plain evaluation) and the head-seeded ordering (``derives_row``
        checks, the criticality hot path).
        """
        requests: Dict[Tuple[str, int, Tuple[int, ...]], None] = {}
        head_slots = frozenset(
            slot for slot, _ in self.head_parts if slot is not None
        )
        for seeded in ({frozenset(), head_slots} if head_slots else {frozenset()}):
            for step in build_steps(self.query, self.slot_of, seeded).steps:
                if step.key_positions:
                    requests[(step.relation, step.arity, step.key_positions)] = None
        return tuple(requests)

    # -- statement assembly ------------------------------------------------------
    def _prepare(self, store: SQLiteFactStore) -> Optional[str]:
        """Resolve the FROM clause against a store; None when some atom
        has no table there (its relation/arity holds no facts)."""
        aliases = []
        for i, (relation, arity) in enumerate(self.atom_tables):
            table = store.table(relation, arity)
            if table is None:
                return None
            aliases.append(f"{table} AS t{i}")
        for relation, arity, positions in self.index_requests:
            store.ensure_index(relation, arity, positions)
        return ", ".join(aliases)

    def _statement(
        self,
        from_clause: str,
        select: str,
        extra_conditions: Sequence[str] = (),
        distinct: bool = False,
        limit_one: bool = False,
    ) -> str:
        conditions = list(self.conditions) + list(extra_conditions)
        sql = f"SELECT {'DISTINCT ' if distinct else ''}{select} FROM {from_clause}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        if limit_one:
            sql += " LIMIT 1"
        return sql

    def _constant_gate(self, store: SQLiteFactStore, from_clause: str) -> bool:
        """Lazily check constant-only comparisons.

        Mirrors the other engines: the predicates are only consulted
        when the body is satisfiable, so an unsatisfiable match never
        turns into an eager type error; an incomparable pair over a
        satisfiable body raises :class:`QueryError`.
        """
        for comparison in self.constant_comparisons:
            left = comparison.left.value
            right = comparison.right.value
            try:
                verdict = COMPARISON_OPS[comparison.op](left, right)
            except TypeError as exc:
                sql = self._statement(from_clause, "1", limit_one=True)
                if _execute(store, sql, self.params):
                    raise QueryError(
                        f"cannot compare {left!r} {comparison.op} {right!r}: "
                        "incompatible types"
                    ) from exc
                return False
            if not verdict:
                return False
        return True

    # -- evaluation --------------------------------------------------------------
    def evaluate(self, store: SQLiteFactStore) -> FrozenSet[Tuple[object, ...]]:
        """The query's answer on the store (set semantics)."""
        from_clause = self._prepare(store)
        if from_clause is None or not self._constant_gate(store, from_clause):
            return frozenset()
        variable_columns = [
            self.column_of[slot] for slot, _ in self.head_parts if slot is not None
        ]
        if not variable_columns:
            # Constant-only (or boolean) head: the answer is the head
            # tuple itself iff the body is satisfiable.
            sql = self._statement(from_clause, "1", limit_one=True)
            if _execute(store, sql, self.params):
                return frozenset({tuple(value for _, value in self.head_parts)})
            return frozenset()
        sql = self._statement(
            from_clause, ", ".join(variable_columns), distinct=True
        )
        answers = set()
        for row in _execute(store, sql, self.params):
            values = iter(row)
            answers.add(
                tuple(
                    value if slot is None else next(values)
                    for slot, value in self.head_parts
                )
            )
        return frozenset(answers)

    def evaluate_boolean(self, store: SQLiteFactStore) -> bool:
        """True iff the query has at least one satisfying assignment."""
        from_clause = self._prepare(store)
        if from_clause is None or not self._constant_gate(store, from_clause):
            return False
        sql = self._statement(from_clause, "1", limit_one=True)
        return bool(_execute(store, sql, self.params))

    def assignments(
        self, store: SQLiteFactStore
    ) -> Iterator[Dict[Variable, object]]:
        """The distinct satisfying assignments, total over body variables."""
        from_clause = self._prepare(store)
        if from_clause is None or not self._constant_gate(store, from_clause):
            return
        columns = [
            self.column_of[self.slot_of[variable]]
            for variable in self.slot_variables
        ]
        if not columns:
            sql = self._statement(from_clause, "1", limit_one=True)
            if _execute(store, sql, self.params):
                yield {}
            return
        sql = self._statement(from_clause, ", ".join(columns), distinct=True)
        for row in _execute(store, sql, self.params):
            yield dict(zip(self.slot_variables, row))

    # -- restricted questions (the criticality hot path) --------------------------
    def _head_seed_conditions(
        self, row: Tuple[object, ...]
    ) -> Optional[Tuple[List[str], List[object]]]:
        """Equality predicates seeding the head columns with a row.

        None when the row can never be derived (wrong arity, conflict
        with a head constant, inconsistent repeated head variable).
        """
        if len(row) != len(self.head_parts):
            return None
        seeds: Dict[int, object] = {}
        for (slot, value), wanted in zip(self.head_parts, row):
            if slot is None:
                if value != wanted:
                    return None
            elif slot in seeds:
                if seeds[slot] != wanted:
                    return None
            else:
                seeds[slot] = wanted
        for value in seeds.values():
            if not isinstance(value, (int, float, str)):
                # No stored column can hold such a value, so the row
                # cannot be in the answer over a SQL store.
                return None
        conditions = [f"{self.column_of[slot]} = ?" for slot in seeds]
        return conditions, list(seeds.values())

    def _exclusion_conditions(
        self, fact: Fact
    ) -> Tuple[List[str], List[object]]:
        """Per-alias predicates removing one fact from the join.

        This is the delta-seeded form of ``Q(I − t)``: instead of
        materialising a second store, every alias that could bind the
        removed fact is forbidden from doing so.
        """
        conditions: List[str] = []
        params: List[object] = []
        arity = len(fact.values)
        for i, (relation, atom_arity) in enumerate(self.atom_tables):
            if relation != fact.relation or atom_arity != arity:
                continue
            if arity == 0:
                # Removing the only row of an arity-0 relation empties
                # it; no derivation through this alias survives.
                conditions.append("0")
            else:
                inner = " AND ".join(f"t{i}.c{p} = ?" for p in range(arity))
                conditions.append(f"NOT ({inner})")
                params.extend(fact.values)
        return conditions, params

    def derives_row(
        self,
        store: SQLiteFactStore,
        row: Sequence[object],
        excluding=None,
    ) -> bool:
        """Decide ``row ∈ Q(store)``, optionally on ``store − excluding``.

        ``excluding`` may be one :class:`Fact` or an iterable of them —
        every excluded fact gets its per-alias ``NOT (…)`` predicates,
        so the probe answers membership over the store minus the whole
        set (the batched-delta membership question).
        """
        seeded = self._head_seed_conditions(tuple(row))
        if seeded is None:
            return False
        from_clause = self._prepare(store)
        if from_clause is None or not self._constant_gate(store, from_clause):
            return False
        conditions, params = seeded
        if excluding is not None:
            excluded = (excluding,) if isinstance(excluding, Fact) else tuple(excluding)
            for fact in excluded:
                extra, extra_params = self._exclusion_conditions(fact)
                conditions = conditions + extra
                params = params + extra_params
        sql = self._statement(from_clause, "1", conditions, limit_one=True)
        return bool(_execute(store, sql, list(self.params) + params))

    def _pin_conditions(self, fact: Fact) -> Iterator[Tuple[List[str], List[object]]]:
        """One predicate set per body atom unifying with ``fact``.

        Each pins its atom's alias to exactly the fact's row — the SQL
        form of the compiled engine's pinned-atom delta variants.
        Python-side unification (constants, repeated variables) filters
        atoms the fact can never bind.
        """
        arity = len(fact.values)
        for i, atom in enumerate(self.query.body):
            if atom.relation != fact.relation or atom.arity != arity:
                continue
            bound: Dict[Variable, object] = {}
            unifies = True
            for term, value in zip(atom.terms, fact.values):
                if is_constant(term):
                    if term.value != value:
                        unifies = False
                        break
                elif term in bound:
                    if bound[term] != value:
                        unifies = False
                        break
                else:
                    bound[term] = value
            if not unifies:
                continue
            if arity == 0:
                yield [], []
            else:
                yield (
                    [f"t{i}.c{p} = ?" for p in range(arity)],
                    list(fact.values),
                )

    def delta_candidates(
        self, store: SQLiteFactStore, fact: Fact
    ) -> Iterator[Tuple[object, ...]]:
        """Answer rows with some derivation over the store using ``fact``."""
        if fact not in store:
            return
        from_clause: Optional[str] = None
        prepared = False
        for conditions, params in self._pin_conditions(fact):
            if not prepared:
                prepared = True
                from_clause = self._prepare(store)
                if from_clause is None or not self._constant_gate(
                    store, from_clause
                ):
                    return
            variable_columns = [
                self.column_of[slot]
                for slot, _ in self.head_parts
                if slot is not None
            ]
            if not variable_columns:
                sql = self._statement(from_clause, "1", conditions, limit_one=True)
                if _execute(store, sql, list(self.params) + params):
                    yield tuple(value for _, value in self.head_parts)
                continue
            sql = self._statement(
                from_clause, ", ".join(variable_columns), conditions, distinct=True
            )
            for row in _execute(store, sql, list(self.params) + params):
                values = iter(row)
                yield tuple(
                    value if slot is None else next(values)
                    for slot, value in self.head_parts
                )

    def delta_without(self, store: SQLiteFactStore, fact: Fact) -> bool:
        """Decide ``Q(store) ≠ Q(store − fact)`` with delta-seeded SQL."""
        SQL_STATS.bump("sql_delta_calls")
        checked: Set[Tuple[object, ...]] = set()
        for row in self.delta_candidates(store, fact):
            if row in checked:
                continue
            checked.add(row)
            if not self.derives_row(store, row, excluding=fact):
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SQLPlan({self.query!r})"


# ---------------------------------------------------------------------------
# Engine entry points (called by the repro.cq.evaluation dispatcher)
# ---------------------------------------------------------------------------
def _fallback(
    entry: str, query, store: SQLiteFactStore, *args, counter: str = "sql_fallbacks"
):
    """Answer one call on the compiled engine over the materialised store.

    Taken when the query or a probed fact holds symbolic (unstorable)
    values (see :class:`UnstorableError`), and — under ``counter=
    "sql_io_fallbacks"`` — when sqlite itself fails with an I/O-class
    :class:`sqlite3.OperationalError` (disk error, corrupt page,
    injected fault).  The verdict is the same either way; only the
    engine that produced it differs, and the degradation is counted so
    operators can see it in ``evaluation_stats()`` / service stats.
    """
    SQL_STATS.bump(counter)
    from . import evaluation

    return getattr(evaluation, entry)(query, store.to_instance(), *args)


def evaluate(query, store: SQLiteFactStore) -> FrozenSet[Tuple[object, ...]]:
    """Evaluate a conjunctive query or a union of them (set semantics)."""
    try:
        disjuncts = getattr(query, "disjuncts", None)
        if disjuncts is not None:
            answers: set = set()
            for disjunct in disjuncts:
                answers |= sql_plan_for(disjunct).evaluate(store)
            return frozenset(answers)
        return sql_plan_for(query).evaluate(store)
    except UnstorableError:
        return _fallback("evaluate", query, store)
    except sqlite3.OperationalError:
        return _fallback("evaluate", query, store, counter="sql_io_fallbacks")


def evaluate_boolean(query, store: SQLiteFactStore) -> bool:
    """True iff the query (or some disjunct) is satisfiable on the store."""
    try:
        disjuncts = getattr(query, "disjuncts", None)
        if disjuncts is not None:
            return any(sql_plan_for(d).evaluate_boolean(store) for d in disjuncts)
        return sql_plan_for(query).evaluate_boolean(store)
    except UnstorableError:
        return _fallback("evaluate_boolean", query, store)
    except sqlite3.OperationalError:
        return _fallback(
            "evaluate_boolean", query, store, counter="sql_io_fallbacks"
        )


def satisfying_assignments(
    query, store: SQLiteFactStore
) -> Iterator[Dict[Variable, object]]:
    """The distinct satisfying assignments (per disjunct for unions)."""
    # The whole answer is drained inside the try: a fallback trigger
    # (unstorable values up front, or a sqlite I/O error on any
    # statement) then re-dispatches the *entire* call to the compiled
    # engine, so the caller never sees duplicated or torn streams.
    try:
        disjuncts = getattr(query, "disjuncts", None) or (query,)
        plans = [sql_plan_for(disjunct) for disjunct in disjuncts]
        produced = [
            assignment for plan in plans for assignment in plan.assignments(store)
        ]
    except UnstorableError:
        yield from _fallback("satisfying_assignments", query, store)
        return
    except sqlite3.OperationalError:
        yield from _fallback(
            "satisfying_assignments", query, store, counter="sql_io_fallbacks"
        )
        return
    yield from produced


def answer_contains(query, store: SQLiteFactStore, row: Sequence[object]) -> bool:
    """Decide ``row ∈ Q(store)`` with a head-seeded SQL probe."""
    try:
        disjuncts = getattr(query, "disjuncts", None) or (query,)
        return any(
            sql_plan_for(disjunct).derives_row(store, row)
            for disjunct in disjuncts
        )
    except UnstorableError:
        return _fallback("answer_contains", query, store, row)
    except sqlite3.OperationalError:
        return _fallback(
            "answer_contains", query, store, row, counter="sql_io_fallbacks"
        )


def delta_changes(query, store: SQLiteFactStore, fact: Fact) -> bool:
    """Decide ``Q(store) ≠ Q(store − fact)`` with delta-seeded SQL.

    For a union, a candidate row must vanish from the *whole* union's
    answer — it is re-checked (with the fact excluded) against every
    disjunct.
    """
    try:
        if fact not in store:
            return False
        disjuncts = getattr(query, "disjuncts", None)
        if disjuncts is None:
            return sql_plan_for(query).delta_without(store, fact)
        SQL_STATS.bump("sql_delta_calls")
        plans = [sql_plan_for(disjunct) for disjunct in disjuncts]
        checked: Set[Tuple[object, ...]] = set()
        for plan in plans:
            for row in plan.delta_candidates(store, fact):
                if row in checked:
                    continue
                checked.add(row)
                if not any(
                    p.derives_row(store, row, excluding=fact) for p in plans
                ):
                    return True
        return False
    except UnstorableError:
        return _fallback("delta_changes", query, store, fact)
    except sqlite3.OperationalError:
        return _fallback(
            "delta_changes", query, store, fact, counter="sql_io_fallbacks"
        )


def _storable_fact(fact: Fact) -> bool:
    """Can this fact live in a SQL store at all?"""
    return all(isinstance(v, (bool, int, float, str)) for v in fact.values)


def delta_with(query, store: SQLiteFactStore, fact: Fact) -> bool:
    """Decide ``Q(store ∪ {fact}) ≠ Q(store)`` with delta-seeded SQL.

    The fact is inserted temporarily, the pinned-atom candidates are
    enumerated over the grown store, and each is checked against the
    original state by *excluding* the fact — then the insertion is
    rolled back, so the store is restored.  Unstorable facts fall back
    to the compiled engine: the question is pure, so the verdict is the
    same.
    """
    try:
        if not _storable_fact(fact):
            raise UnstorableError(
                f"fact {fact!r} holds values the sql engine cannot store"
            )
        if fact in store:
            return False
        SQL_STATS.bump("sql_delta_calls")
        disjuncts = getattr(query, "disjuncts", None) or (query,)
        plans = [sql_plan_for(disjunct) for disjunct in disjuncts]
        store.add(fact)
        try:
            checked: Set[Tuple[object, ...]] = set()
            for plan in plans:
                for row in plan.delta_candidates(store, fact):
                    if row in checked:
                        continue
                    checked.add(row)
                    if not any(
                        p.derives_row(store, row, excluding=fact) for p in plans
                    ):
                        return True
            return False
        finally:
            store.remove(fact)
    except UnstorableError:
        return _fallback("delta_with", query, store, fact)
    except sqlite3.OperationalError:
        return _fallback(
            "delta_with", query, store, fact, counter="sql_io_fallbacks"
        )


def delta_apply(query, store: SQLiteFactStore, added: Sequence[Fact] = (), removed: Sequence[Fact] = ()):
    """Apply a batched fact delta in place and report the answer change.

    Returns ``(store, gained, lost)``: the store is mutated in place.
    The candidate enumeration is semi-naive: removal candidates over the
    pre-state, insertion candidates over the grown mid-state (with their
    pre-state membership answered by excluding every added fact), and
    one final membership probe per candidate over the post-state.
    """
    after, changes = delta_apply_many((query,), store, added, removed)
    gained, lost = changes[0]
    return after, gained, lost


def delta_apply_many(
    queries: Sequence,
    store: SQLiteFactStore,
    added: Sequence[Fact] = (),
    removed: Sequence[Fact] = (),
):
    """Apply one batched fact delta shared by many queries.

    The store advances through the mid- and post-states exactly once;
    each query's candidates are enumerated and settled against those
    shared states, so a delta over N tracked queries costs one mutation
    plus N candidate sweeps.  Returns ``(store, [(gained, lost), ...])``.
    A sqlite I/O error mid-delta propagates: the store may be torn, so
    no answer computed elsewhere could describe it.
    """
    try:
        added_set = set(added)
        truly_removed = [
            f
            for f in dict.fromkeys(removed)
            if _storable_fact(f) and f in store and f not in added_set
        ]
        truly_added = [f for f in dict.fromkeys(added) if f not in store]
        for fact in truly_added:
            if not _storable_fact(fact):
                raise ReproError(
                    f"cannot apply delta: fact {fact!r} holds values a "
                    "SQL-backed store cannot hold"
                )
        SQL_STATS.bump("sql_delta_calls")
        per_query_plans = [
            [sql_plan_for(d) for d in (getattr(query, "disjuncts", None) or (query,))]
            for query in queries
        ]
    except UnstorableError:
        return _fallback("delta_apply_many", queries, store, added, removed)
    # Phase 1: removal candidates over the pre-state (all of them are in
    # Q(before) by construction).
    lost_candidates: List[Set[Tuple[object, ...]]] = [set() for _ in per_query_plans]
    for fact in truly_removed:
        for candidates, plans in zip(lost_candidates, per_query_plans):
            for plan in plans:
                candidates.update(plan.delta_candidates(store, fact))
    # Phase 2: grow to the mid-state; insertion candidates are in
    # Q(mid), and their membership in Q(before) is answered by excluding
    # every added fact (mid − added = before).
    if truly_added:
        store.add(*truly_added)
    in_before: List[Dict[Tuple[object, ...], bool]] = [{} for _ in per_query_plans]
    for fact in truly_added:
        for candidates, membership, plans in zip(
            lost_candidates, in_before, per_query_plans
        ):
            for plan in plans:
                for row in plan.delta_candidates(store, fact):
                    if row in candidates or row in membership:
                        continue
                    membership[row] = any(
                        p.derives_row(store, row, excluding=truly_added)
                        for p in plans
                    )
    # Phase 3: shrink to the post-state; settle every candidate with one
    # membership probe against it.
    if truly_removed:
        store.remove(*truly_removed)
    changes = []
    for candidates, membership, plans in zip(
        lost_candidates, in_before, per_query_plans
    ):
        lost = frozenset(
            row
            for row in candidates
            if not any(p.derives_row(store, row) for p in plans)
        )
        gained = frozenset(
            row
            for row, before in membership.items()
            if not before and any(p.derives_row(store, row) for p in plans)
        )
        changes.append((gained, lost))
    return store, changes
