"""SQL evaluation backend: three-target cross-validation and plumbing.

A :class:`~repro.storage.sqlite.SQLiteFactStore` target runs on the sql
engine, which compiles join plans into SQLite statements, so its
answers must be indistinguishable from the compiled engine on an
:class:`~repro.relational.Instance` of the same facts and from the
reference evaluator of :mod:`repro.reference` on every query the
library can express — including mixed-type domains, empty relations,
comparison-heavy queries and unions — across every entry point,
deltas included.  The suite also pins the fallback contract
(unstorable values quietly re-route through the compiled engine) and
that the removed ``eval_engine`` knob stays removed from sessions,
auditors and the wire protocol.
"""

import sys
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_compiled_eval import (
    INT_VALUES,
    MIXED_VALUES,
    _assignment_set,
    _fact_strategy,
    _instance_strategy,
    _query_strategy,
)

from repro.cq import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Variable,
    delta_apply,
    evaluate,
    q,
    satisfying_assignments,
    union_of,
)
from repro.cq import evaluation
from repro.cq.compiled import STATS, evaluation_stats, reset_evaluation_stats
from repro.cq.sql import SQL_STATS
from repro.reference import (
    naive_evaluate,
    naive_evaluate_boolean,
    naive_satisfying_assignments,
)
from repro.relational import Fact, Instance
from repro.service.protocol import parse_request, session_key
from repro.session import AnalysisSession
from repro.storage import SQLiteFactStore
from repro.storage.sqlite import STORAGE_STATS

#: Type-punning pool: every int appears alongside its string spelling
#: (and a float with its own), so type-uniform columns meet constants,
#: probes and facts of the *other* type.  Any column affinity in the
#: store would make SQLite coerce these together; Python never does.
NUMSTR_VALUES = [0, 1, 2, "0", "1", "2", 1.5, "1.5"]


def _reference_delta_apply(query, before, added=(), removed=()):
    after = Instance((before.facts - set(removed)) | set(added))
    old, new = naive_evaluate(query, before), naive_evaluate(query, after)
    return after, new - old, old - new


#: The reference evaluator's answer to each entry point's question.
REFERENCE = {
    "evaluate": naive_evaluate,
    "evaluate_boolean": naive_evaluate_boolean,
    "satisfying_assignments": naive_satisfying_assignments,
    "answer_contains": lambda query, instance, row: (
        tuple(row) in naive_evaluate(query, instance)
    ),
    "delta_changes": lambda query, instance, fact: (
        naive_evaluate(query, instance) != naive_evaluate(query, instance.remove(fact))
    ),
    "delta_apply": _reference_delta_apply,
    "delta_apply_many": lambda queries, instance, added=(), removed=(): (
        _reference_delta_apply(queries[0], instance, added, removed)[0],
        [_reference_delta_apply(query, instance, added, removed)[1:] for query in queries],
    ),
}


def _facts(state):
    return state.facts if isinstance(state, Instance) else frozenset(state)


#: How each entry point's result is compared (generators drained, states
#: reduced to their fact sets).
NORMALISE = {
    "satisfying_assignments": _assignment_set,
    "delta_apply": lambda result: (_facts(result[0]), *result[1:]),
    "delta_apply_many": lambda result: (_facts(result[0]), result[1]),
}


def _unanimous(entry, query, instance, *args):
    """One entry point on three targets: sql on a store, compiled on an
    instance of the same facts, and the reference evaluator."""
    production = getattr(evaluation, entry)
    store = SQLiteFactStore.mirror(instance.facts)
    results = {
        "compiled": production(query, instance, *args),
        "sql": production(query, store, *args),
        "naive": REFERENCE[entry](query, instance, *args),
    }
    normalise = NORMALISE.get(entry, lambda result: result)
    results = {target: normalise(result) for target, result in results.items()}
    assert results["sql"] == results["compiled"] == results["naive"], entry
    return results["sql"]


# ---------------------------------------------------------------------------
# Hypothesis cross-validation: sql vs compiled vs naive
# ---------------------------------------------------------------------------
class TestSqlMatchesOtherEngines:
    # As in test_compiled_eval: order predicates over mixed-type domains
    # raise QueryError at engine-dependent points (and SQLite would
    # happily order across storage classes), so the general strategy
    # sticks to =/!= and order predicates get an int-only strategy.
    @settings(max_examples=80, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
    )
    def test_mixed_type_domains_equality_comparisons(self, query, instance):
        _unanimous("evaluate", query, instance)
        _unanimous("evaluate_boolean", query, instance)
        _unanimous("satisfying_assignments", query, instance)

    @settings(max_examples=80, deadline=None)
    @given(
        query=_query_strategy(NUMSTR_VALUES, ["=", "!="]),
        instance=_instance_strategy(NUMSTR_VALUES),
        fact=_fact_strategy(NUMSTR_VALUES),
        probe=st.lists(st.sampled_from(NUMSTR_VALUES), max_size=3),
    )
    def test_numeric_string_type_punning(self, query, instance, fact, probe):
        # Regression pool for the affinity bug: typed columns once let
        # SQLite match the constant "1" against an all-int column.
        _unanimous("evaluate", query, instance)
        _unanimous("evaluate_boolean", query, instance)
        _unanimous("answer_contains", query, instance, tuple(probe))
        _unanimous("delta_changes", query, instance, fact)

    @settings(max_examples=80, deadline=None)
    @given(
        query=_query_strategy(INT_VALUES, ["=", "!=", "<", "<=", ">", ">="]),
        instance=_instance_strategy(INT_VALUES),
    )
    def test_int_domains_order_comparisons(self, query, instance):
        _unanimous("evaluate", query, instance)
        _unanimous("satisfying_assignments", query, instance)

    @settings(max_examples=80, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        probe=st.lists(st.sampled_from(MIXED_VALUES), max_size=3),
    )
    def test_answer_contains(self, query, instance, probe):
        rows = list(evaluate(query, instance))[:3] + [tuple(probe)]
        for row in rows:
            _unanimous("answer_contains", query, instance, row)

    @settings(max_examples=80, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        fact=_fact_strategy(MIXED_VALUES),
    )
    def test_delta_changes(self, query, instance, fact):
        _unanimous("delta_changes", query, instance, fact)

    @settings(max_examples=50, deadline=None)
    @given(
        first=_query_strategy(MIXED_VALUES, ["=", "!="]),
        second=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        fact=_fact_strategy(MIXED_VALUES),
    )
    def test_unions(self, first, second, instance, fact):
        assume(len(first.head) == len(second.head))
        union = union_of(first, second)
        _unanimous("evaluate", union, instance)
        _unanimous("evaluate_boolean", union, instance)
        _unanimous("delta_changes", union, instance, fact)
        _unanimous("delta_apply", union, instance, [fact])

    @settings(max_examples=80, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        fact=_fact_strategy(MIXED_VALUES),
    )
    def test_delta_apply_single_insertion(self, query, instance, fact):
        _unanimous("delta_apply", query, instance, [fact])

    @settings(max_examples=60, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        added=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
        removed=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
    )
    def test_delta_apply(self, query, instance, added, removed):
        _unanimous("delta_apply", query, instance, added, removed)

    @settings(max_examples=40, deadline=None)
    @given(
        first=_query_strategy(MIXED_VALUES, ["=", "!="]),
        second=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        added=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
        removed=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
    )
    def test_delta_apply_many(self, first, second, instance, added, removed):
        _unanimous("delta_apply_many", (first, second), instance, added, removed)

    def test_delta_apply_mutates_a_store_in_place(self):
        store = SQLiteFactStore.mirror(
            [Fact("R", (1, 2)), Fact("S", (2, 3)), Fact("R", (4, 4))]
        )
        query = q("Q(x, z) :- R(x, y), S(y, z)")
        after, gained, lost = delta_apply(
            query, store, added=[Fact("S", (4, 9))], removed=[Fact("S", (2, 3))]
        )
        assert after is store
        assert Fact("S", (4, 9)) in store and Fact("S", (2, 3)) not in store
        assert gained == frozenset({(4, 9)})
        assert lost == frozenset({(1, 3)})


# ---------------------------------------------------------------------------
# Affinity regressions: int vs numeric-looking string, pinned exactly
# ---------------------------------------------------------------------------
class TestNoAffinityCoercion:
    """Typed store columns once made SQLite coerce 1 and "1" together.

    Each case pins one concrete path the reviewer showed diverging:
    constants against type-uniform columns, joins across differently-
    typed columns, head-seeded probes and the delta membership guard.
    """

    INT_FACTS = Instance.of(Fact("R", (1,)), Fact("R", (2,)))

    def test_string_constant_never_matches_an_int_column(self):
        query = ConjunctiveQuery((), (Atom("R", (Constant("1"),)),), ())
        assert _unanimous("evaluate_boolean", query, self.INT_FACTS) is False
        assert _unanimous("evaluate", query, self.INT_FACTS) == frozenset()

    def test_int_constant_never_matches_a_string_column(self):
        instance = Instance.of(Fact("R", ("1",)), Fact("R", ("2",)))
        query = ConjunctiveQuery((), (Atom("R", (Constant(1),)),), ())
        assert _unanimous("evaluate_boolean", query, instance) is False

    def test_join_across_differently_typed_columns_is_empty(self):
        instance = Instance.of(Fact("R", (1,)), Fact("S", ("1",)))
        query = q("Q(x) :- R(x), S(x)")
        assert _unanimous("evaluate", query, instance) == frozenset()

    def test_head_seeded_probe_respects_types(self):
        query = q("Q(x) :- R(x)")
        assert _unanimous("answer_contains", query, self.INT_FACTS, ("1",)) is False
        assert _unanimous("answer_contains", query, self.INT_FACTS, (1,)) is True

    def test_delta_membership_guard_respects_types(self):
        # Fact("R", ("1",)) is not in the instance, so removing it can
        # never change the answer — the guard must not be fooled by a
        # coerced membership probe.
        query = q("Q(x) :- R(x)")
        assert _unanimous(
            "delta_changes", query, self.INT_FACTS, Fact("R", ("1",))
        ) is False
        assert _unanimous(
            "delta_changes", query, self.INT_FACTS, Fact("R", (1,))
        ) is True

    def test_store_membership_respects_types(self):
        store = SQLiteFactStore.mirror([Fact("R", (1,))])
        assert Fact("R", ("1",)) not in store
        assert Fact("R", (1,)) in store


# ---------------------------------------------------------------------------
# Store-backed evaluation
# ---------------------------------------------------------------------------
class TestStoreBackedEvaluation:
    FACTS = [
        Fact("R", (1, 2)),
        Fact("R", (2, 3)),
        Fact("R", (2, "a")),
        Fact("S", ("a", 1)),
    ]

    def test_every_engine_accepts_a_fact_store(self):
        # A store runs on sql in place; the compiled engine takes the
        # same facts as any iterable; the reference takes an instance.
        store = SQLiteFactStore.mirror(self.FACTS)
        query = q("Q(x, z) :- R(x, y), S(y, z)")
        expected = naive_evaluate(query, store.to_instance())
        assert evaluate(query, store) == evaluate(query, list(store)) == expected
        assert _unanimous("delta_changes", query, store.to_instance(), Fact("S", ("a", 1)))

    def test_sql_runs_directly_against_a_file_store(self, tmp_path):
        with SQLiteFactStore(tmp_path / "facts.db") as store:
            store.load_facts(self.FACTS)
            before = SQL_STATS["sql_statements_executed"]
            answers = evaluate(q("Q(y) :- R(2, y)"), store)
            assert SQL_STATS["sql_statements_executed"] > before
        assert answers == {(3,), ("a",)}


class TestReadsNeverWrite:
    """Only the ``apply`` forms write a store; every read leaves it as it was."""

    STORED = [Fact("R", (1, 2)), Fact("R", (2, 3)), Fact("R", (3, 3))]
    QUERIES = [
        q("Q(x, z) :- R(x, y), R(y, z)"),
        q("Q(x) :- S(x, y)"),  # the store has no table for S
        union_of(q("Q(x) :- R(x, y)"), q("Q(x) :- S(x, y)")),
    ]
    PROBES = [Fact("R", (1, 2)), Fact("R", (9, 9)), Fact("S", (3, 4))]
    COUNTERS = ("facts_loaded", "facts_removed", "tables_created")

    def test_reads_leave_facts_tables_and_counters_unchanged(self, tmp_path):
        path = tmp_path / "facts.db"
        with SQLiteFactStore(path) as store:
            store.load_facts(self.STORED)
            relations = store.relations()
            counters = {name: STORAGE_STATS[name] for name in self.COUNTERS}
            for query in self.QUERIES:
                evaluation.evaluate(query, store)
                evaluation.evaluate_boolean(query, store)
                list(evaluation.satisfying_assignments(query, store))
                evaluation.answer_contains(query, store, (1,))
                for fact in self.PROBES:
                    evaluation.delta_changes(query, store, fact)
            assert {name: STORAGE_STATS[name] for name in self.COUNTERS} == counters
            assert set(store) == set(self.STORED)
            assert store.relations() == relations
        with SQLiteFactStore(path) as reopened:
            assert reopened.relations() == relations
            assert set(reopened) == set(self.STORED)


# ---------------------------------------------------------------------------
# Engine choice by target type, and fallback
# ---------------------------------------------------------------------------
class TestTargetDispatch:
    def test_store_runs_sql_and_every_other_target_runs_compiled(self):
        query = q("Q(x) :- R(x, y)")
        facts = [Fact("R", (1, 2)), Fact("R", (3, 4))]
        store = SQLiteFactStore.mirror(facts)
        for target, engine in ((store, "sql"), (Instance(facts), "compiled"), (facts, "compiled")):
            sql_before = SQL_STATS["sql_statements_executed"]
            compiled_before = STATS["compiled_evaluations"]
            assert evaluate(query, target) == {(1,), (3,)}
            ran_sql = SQL_STATS["sql_statements_executed"] > sql_before
            ran_compiled = STATS["compiled_evaluations"] > compiled_before
            assert (ran_sql, ran_compiled) == (engine == "sql", engine == "compiled")


    def test_dispatch_tolerates_a_half_imported_storage_module(self, monkeypatch):
        # Another thread may be importing the storage module: it sits in
        # sys.modules before its store class exists.
        half_imported = types.ModuleType("repro.storage.sqlite")
        monkeypatch.setitem(sys.modules, "repro.storage.sqlite", half_imported)
        query = q("Q(x) :- R(x, y)")
        assert evaluate(query, Instance.of(Fact("R", (1, 2)))) == {(1,)}


class TestFallback:
    def test_unstorable_query_constant_falls_back(self):
        query = ConjunctiveQuery(
            (Variable("x"),),
            (Atom("R", (Variable("x"), Variable("y"))),),
            (Comparison(Variable("y"), "!=", Constant(None)),),
        )
        store = SQLiteFactStore.mirror([Fact("R", (1, "z")), Fact("R", (2, 3))])
        before = SQL_STATS["sql_fallbacks"]
        assert evaluate(query, store) == {(1,), (2,)}
        assert SQL_STATS["sql_fallbacks"] > before

    def test_unstorable_query_delta_lands_in_the_store(self):
        # The changes come from the compiled engine, but the delta is
        # still written to the store, and the store is what is returned.
        query = ConjunctiveQuery(
            (Variable("x"),),
            (Atom("R", (Variable("x"), Variable("y"))),),
            (Comparison(Variable("y"), "!=", Constant(None)),),
        )
        store = SQLiteFactStore.mirror([Fact("R", (1, 2)), Fact("R", (5, 6))])
        before = SQL_STATS["sql_fallbacks"]
        after, gained, lost = delta_apply(
            query, store, added=[Fact("R", (3, 4))], removed=[Fact("R", (1, 2))]
        )
        assert after is store
        assert (gained, lost) == ({(3,)}, {(1,)})
        assert Fact("R", (3, 4)) in store
        assert Fact("R", (1, 2)) not in store
        assert evaluate(query, store) == {(3,), (5,)}
        assert SQL_STATS["sql_fallbacks"] > before

    def test_union_fallback_does_not_duplicate_assignments(self):
        # A storable first disjunct followed by an unstorable one: the
        # whole call must fall back *before* the first yield, or the
        # fallback re-yields the first disjunct's assignments.
        good = q("Q(x) :- R(x, y)")
        bad = ConjunctiveQuery(
            (Variable("x"),),
            (Atom("R", (Variable("x"), Constant(None))),),
            (),
        )
        union = union_of(good, bad)
        facts = [Fact("R", (1, 2)), Fact("R", (2, 3))]
        rows = [
            frozenset(a.items())
            for a in satisfying_assignments(union, SQLiteFactStore.mirror(facts))
        ]
        assert len(rows) == len(set(rows))
        expected = [
            frozenset(a.items()) for a in satisfying_assignments(union, Instance(facts))
        ]
        assert set(rows) == set(expected)
        assert len(rows) == len(expected)


class TestSqlStats:
    def test_counters_flow_through_evaluation_stats(self):
        reset_evaluation_stats()
        store = SQLiteFactStore.mirror([Fact("R", (1, 2)), Fact("R", (2, 3))])
        query = q("Q(x, z) :- R(x, y), R(y, z)")
        evaluate(query, store)
        evaluate(query, store)  # second call reuses the cached plan
        evaluation.delta_changes(query, store, Fact("R", (2, 3)))
        document = evaluation_stats()
        assert document["sql_plans_compiled"] == 1
        assert document["sql_plan_cache_hits"] >= 1
        assert document["sql_statements_executed"] >= 2
        assert "sql_mirrors_built" not in document
        assert document["sql_delta_calls"] == 1
        assert document["storage_facts_loaded"] >= 2
        assert document["storage_tables_created"] >= 1
        reset_evaluation_stats()
        assert evaluation_stats()["sql_statements_executed"] == 0


# ---------------------------------------------------------------------------
# The removed eval_engine knob stays removed: session, auditor, protocol
# ---------------------------------------------------------------------------
class TestEvalEnginePlumbing:
    def test_session_rejects_unknown_engine(self, binary_ab_schema):
        with pytest.raises(TypeError, match="eval_engine"):
            AnalysisSession(binary_ab_schema, eval_engine="sql")

    def test_auditor_reports_its_engine(self, emp_schema):
        from repro.audit import SecurityAuditor

        auditor = SecurityAuditor(emp_schema)
        assert auditor.observability()["engines"] == {"verification": "exact"}

    def test_protocol_ignores_eval_engine(self):
        # Old clients may still send the field: it neither fails the
        # request nor splits the session pool.
        from repro.bench import employee_schema
        from repro.io import schema_to_dict

        document = {
            "op": "decide",
            "schema": schema_to_dict(employee_schema()),
            "secret": "S(n, p) :- Emp(n, d, p)",
            "views": ["V(n, d) :- Emp(n, d, p)"],
        }
        plain = parse_request(document)
        pinned = parse_request({**document, "eval_engine": "sql"})
        assert session_key(plain) == session_key(pinned)
        assert not hasattr(pinned, "eval_engine")
