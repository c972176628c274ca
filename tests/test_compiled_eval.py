"""Compiled query-evaluation engine: cross-validation and regressions.

The compiled planner/evaluator (`repro.cq.plan` + `repro.cq.compiled`)
must be answer-identical to the seed backtracking evaluator (the oracle
in `repro.reference`) on every query the library can express — random
queries with comparisons, constants, repeated variables, mixed-type
domains and empty relations — and `delta_changes`/`delta_apply`/
`answer_contains` must agree with full re-evaluation on random
(instance, fact) pairs.
"""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cq import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    UnionQuery,
    Variable,
    answer_contains,
    delta_apply,
    delta_apply_many,
    delta_changes,
    evaluate,
    evaluate_boolean,
    plan_atom_order,
    plan_for,
    q,
    satisfying_assignments,
    union_of,
)
from repro.cq.compiled import STATS, evaluation_stats, reset_evaluation_stats
from repro.cq.homomorphism import homomorphisms_into_instance
from repro.reference import (
    naive_evaluate,
    naive_evaluate_boolean,
    naive_satisfying_assignments,
)
from repro.relational import Fact, Instance
from repro.relational.instance import INDEX_STATS

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
#: Relation name -> arity.  ``T`` often ends up with no facts (empty-relation
#: coverage); values mix ints and strings (mixed-type domains).
RELATIONS = {"R": 2, "S": 2, "T": 1}
MIXED_VALUES = [0, 1, 2, "a", "b"]
INT_VALUES = [0, 1, 2, 3]
VARIABLES = [Variable(n) for n in ("x", "y", "z", "w")]


def _term_strategy(values):
    return st.one_of(
        st.sampled_from(VARIABLES),
        st.builds(Constant, st.sampled_from(values)),
    )


def _atom_strategy(values):
    def build(relation, draw_terms):
        return Atom(relation, draw_terms)

    return st.sampled_from(sorted(RELATIONS)).flatmap(
        lambda relation: st.tuples(
            *[_term_strategy(values)] * RELATIONS[relation]
        ).map(lambda terms: Atom(relation, terms))
    )


def _query_strategy(values, operators):
    @st.composite
    def build(draw):
        body = tuple(draw(st.lists(_atom_strategy(values), min_size=1, max_size=3)))
        body_vars = sorted({v for atom in body for v in atom.variables})
        head_pool = [Constant(draw(st.sampled_from(values)))] + body_vars
        head = tuple(
            draw(st.sampled_from(head_pool))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        )
        comparisons = []
        if body_vars:
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                left = draw(st.sampled_from(body_vars))
                right = draw(
                    st.one_of(
                        st.sampled_from(body_vars),
                        st.builds(Constant, st.sampled_from(values)),
                    )
                )
                comparisons.append(
                    Comparison(left, draw(st.sampled_from(operators)), right)
                )
        return ConjunctiveQuery(head, body, tuple(comparisons))

    return build()


def _fact_strategy(values):
    return st.sampled_from(sorted(RELATIONS)).flatmap(
        lambda relation: st.tuples(
            *[st.sampled_from(values)] * RELATIONS[relation]
        ).map(lambda vs: Fact(relation, vs))
    )


def _instance_strategy(values, max_size=14):
    return st.lists(_fact_strategy(values), max_size=max_size).map(Instance)


def _assignment_set(assignments):
    return frozenset(frozenset(a.items()) for a in assignments)


# ---------------------------------------------------------------------------
# Hypothesis cross-validation: compiled vs naive
# ---------------------------------------------------------------------------
class TestCompiledMatchesNaive:
    # Mixed-type domains with order predicates can raise QueryError at
    # engine-dependent points, so the general strategy sticks to =/!=
    # (never type-sensitive); order predicates get an int-only strategy.
    @settings(max_examples=120, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
    )
    def test_mixed_type_domains_equality_comparisons(self, query, instance):
        plan = plan_for(query)
        assert plan.evaluate(instance) == naive_evaluate(query, instance)
        assert plan.evaluate_boolean(instance) == naive_evaluate_boolean(
            query, instance
        )
        assert _assignment_set(plan.assignments(instance)) == (
            _assignment_set(naive_satisfying_assignments(query, instance))
        )

    @settings(max_examples=120, deadline=None)
    @given(
        query=_query_strategy(INT_VALUES, ["=", "!=", "<", "<=", ">", ">="]),
        instance=_instance_strategy(INT_VALUES),
    )
    def test_int_domains_order_comparisons(self, query, instance):
        plan = plan_for(query)
        assert plan.evaluate(instance) == naive_evaluate(query, instance)
        assert _assignment_set(plan.assignments(instance)) == (
            _assignment_set(naive_satisfying_assignments(query, instance))
        )

    @settings(max_examples=120, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        other=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        fact=_fact_strategy(MIXED_VALUES),
    )
    def test_delta_changes_matches_full_reevaluation(self, query, other, instance, fact):
        with_fact = instance.add(fact)
        queries = [query]
        if other.arity == query.arity:
            queries.append(union_of(query, other))
        for target in queries:
            expected = naive_evaluate(target, with_fact) != naive_evaluate(
                target, with_fact.remove(fact)
            )
            assert delta_changes(target, with_fact, fact) == expected
            # A fact absent from the instance never changes the answer.
            assert delta_changes(target, instance.remove(fact), fact) is False

    @settings(max_examples=120, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        fact=_fact_strategy(MIXED_VALUES),
    )
    def test_single_insertion_gains_match_full_reevaluation(self, query, instance, fact):
        without = instance.remove(fact)
        _, gained, lost = delta_apply(query, without, added=[fact])
        assert gained == naive_evaluate(query, without.add(fact)) - naive_evaluate(
            query, without
        )
        assert lost == frozenset()
        # A fact already present never changes the answer.
        _, gained, lost = delta_apply(query, instance.add(fact), added=[fact])
        assert gained == lost == frozenset()

    @settings(max_examples=100, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        added=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
        removed=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
    )
    def test_delta_apply_matches_full_reevaluation(
        self, query, instance, added, removed
    ):
        after, gained, lost = delta_apply(query, instance, added, removed)
        # A fact listed in both sets ends up present.
        assert after.facts == (instance.facts - set(removed)) | set(added)
        before_answer = naive_evaluate(query, instance)
        after_answer = naive_evaluate(query, after)
        assert gained == after_answer - before_answer
        assert lost == before_answer - after_answer

    @settings(max_examples=60, deadline=None)
    @given(
        first=_query_strategy(MIXED_VALUES, ["=", "!="]),
        second=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
        added=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
        removed=st.lists(_fact_strategy(MIXED_VALUES), max_size=3),
    )
    def test_delta_apply_many_matches_per_query_apply(
        self, first, second, instance, added, removed
    ):
        after, changes = delta_apply_many((first, second), instance, added, removed)
        assert len(changes) == 2
        for query, change in zip((first, second), changes):
            solo_after, gained, lost = delta_apply(query, instance, added, removed)
            assert solo_after.facts == after.facts
            assert change == (gained, lost)

    @settings(max_examples=120, deadline=None)
    @given(
        query=_query_strategy(MIXED_VALUES, ["=", "!="]),
        instance=_instance_strategy(MIXED_VALUES),
    )
    def test_answer_contains_matches_membership(self, query, instance):
        answer = naive_evaluate(query, instance)
        plan = plan_for(query)
        for row in answer:
            assert plan.derives_row(instance, row)
        # A row that differs from every produced one is never contained.
        probe = ("no-such-value",) * query.arity
        assert plan.derives_row(instance, probe) == (probe in answer)


# ---------------------------------------------------------------------------
# Deterministic coverage of the edges the strategies may under-sample
# ---------------------------------------------------------------------------
class TestCompiledEdges:
    def test_empty_relation_and_empty_instance(self):
        query = q("Q(x) :- R(x, y), T(x)")
        assert evaluate(query, Instance.empty()) == frozenset()
        only_r = Instance.of(Fact("R", ("a", "b")))
        assert evaluate(query, only_r) == frozenset()

    def test_repeated_variables_across_atoms_and_in_head(self):
        instance = Instance.of(
            Fact("R", ("a", "a")), Fact("R", ("a", "b")), Fact("S", ("b", "a"))
        )
        query = q("Q(x, x) :- R(x, x), S(y, x)")
        assert evaluate(query, instance) == naive_evaluate(query, instance) == frozenset(
            {("a", "a")}
        )

    def test_head_constants(self):
        instance = Instance.of(Fact("R", ("a", "b")))
        query = ConjunctiveQuery(
            (Constant("lit"), Variable("x")),
            (Atom("R", (Variable("x"), Variable("y"))),),
        )
        assert evaluate(query, instance) == frozenset({("lit", "a")})
        assert answer_contains(query, instance, ("lit", "a"))
        assert not answer_contains(query, instance, ("other", "a"))
        assert not answer_contains(query, instance, ("lit",))

    def test_arity_mismatched_facts_are_ignored(self):
        # Instances are plain fact sets: a relation may hold facts of
        # several arities and only the matching ones may join.
        instance = Instance.of(Fact("R", ("a",)), Fact("R", ("a", "b")))
        query = q("Q(x, y) :- R(x, y)")
        assert evaluate(query, instance) == naive_evaluate(query, instance) == frozenset(
            {("a", "b")}
        )

    def test_union_queries_dispatch_per_disjunct(self):
        union = UnionQuery([q("Q(x) :- R(x, y)"), q("Q(x) :- S(x, y)")])
        instance = Instance.of(Fact("R", ("a", "b")), Fact("S", ("c", "d")))
        assert evaluate(union, instance) == frozenset({("a",), ("c",)})
        assert answer_contains(union, instance, ("c",))
        # Removing the only S fact loses ("c",) from the union's answer...
        assert delta_changes(union, instance, Fact("S", ("c", "d")))
        # ...but a row still derivable through the other disjunct survives.
        both = instance.add(Fact("S", ("a", "z")))
        assert not delta_changes(
            UnionQuery([q("Q(x) :- R(x, y)"), q("Q(x) :- S(x, y)")]),
            both,
            Fact("S", ("a", "z")),
        )

    def test_delta_skips_facts_unifying_with_no_subgoal(self):
        query = q("Q(x) :- R(x, y)")
        instance = Instance.of(Fact("R", ("a", "b")), Fact("S", ("a", "b")))
        before = STATS["delta_unification_skips"]
        assert not delta_changes(query, instance, Fact("S", ("a", "b")))
        assert STATS["delta_unification_skips"] == before + 1

    def test_constant_only_comparison_checked_lazily(self):
        # The reference evaluator only checks constant-only comparisons
        # once a subgoal matches; an unsatisfiable body never raises.
        query = ConjunctiveQuery(
            (),
            (Atom("R", (Variable("x"),)),),
            (Comparison(Constant(1), "<", Constant("a")),),
        )
        assert evaluate(query, Instance.empty()) == frozenset()
        assert naive_evaluate(query, Instance.empty()) == frozenset()

    def test_plan_runs_free_their_instance_without_the_cycle_collector(self):
        # A run that finishes, or stops at its first answer, must leave
        # no reference cycle behind: one would keep the instance and its
        # indexes alive until the next full collection.
        query = q("Q(x, z) :- R(x, y), S(y, z)")
        plan = plan_for(query)
        facts = [Fact("R", ("a", "b")), Fact("R", ("d", "b")), Fact("S", ("b", "c"))]
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(10):
                instance = Instance.of(*facts)
                assert plan.evaluate(instance) == frozenset({("a", "c"), ("d", "c")})
                assert plan.derives_row(instance, ("a", "c"))
                assert delta_changes(query, instance, Fact("S", ("b", "c")))
            del instance
            gc.collect()
            leaked = [obj for obj in gc.garbage if isinstance(obj, Instance)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert not leaked, f"{len(leaked)} instances were freed only by the cycle collector"


# ---------------------------------------------------------------------------
# Planner ordering + homomorphism order-invariance (satellite)
# ---------------------------------------------------------------------------
class TestPlannerOrdering:
    def test_most_selective_atom_probes_first(self):
        query = ConjunctiveQuery(
            (),
            (
                Atom("R", (Variable("x"), Variable("y"))),
                Atom("S", (Constant("a"), Variable("z"))),
            ),
        )
        assert plan_atom_order(query)[0] == 1

    def test_connected_atoms_follow_bound_variables(self):
        query = q("Q() :- R(x, y), S(y, z), T(w)")
        order = plan_atom_order(query)
        # T shares no variable with R/S, so it must not interrupt the
        # R-S chain (whichever of R/S starts, the other follows).
        assert set(order[:2]) == {0, 1}

    @pytest.mark.parametrize("engine", ["compiled", "naive"])
    def test_homomorphism_counts_are_body_order_invariant(self, engine):
        enumerate_homomorphisms = {
            "compiled": homomorphisms_into_instance,
            "naive": naive_satisfying_assignments,
        }[engine]
        instance = Instance.of(
            Fact("R", ("a", "b")),
            Fact("R", ("b", "b")),
            Fact("S", ("b", "a")),
            Fact("S", ("b", "b")),
        )
        base = q("Q(x) :- R(x, y), S(y, z), R(z, w)")
        counts = set()
        for permutation in itertools.permutations(range(3)):
            permuted = ConjunctiveQuery(
                base.head,
                tuple(base.body[i] for i in permutation),
                base.comparisons,
            )
            counts.add(len(list(enumerate_homomorphisms(permuted, instance))))
        assert len(counts) == 1


# ---------------------------------------------------------------------------
# Engine selection (by the target's type) + observability
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_default_engine_is_compiled(self):
        # Every in-memory target — an Instance or a plain fact list —
        # runs on the compiled engine.
        query = q("Q(x) :- R(x, y)")
        facts = [Fact("R", ("a", "b"))]
        before = STATS["compiled_evaluations"]
        assert evaluate(query, Instance(facts)) == evaluate(query, facts) == {("a",)}
        assert STATS["compiled_evaluations"] == before + 2

    def test_blank_value_falls_back_to_compiled(self, monkeypatch):
        # The engine variable is gone: a value left over in a deployment
        # environment, blank or not, changes nothing.
        query = q("Q(x) :- R(x, y)")
        instance = Instance.of(Fact("R", ("a", "b")))
        for value in ("  ", "naive", "sql"):
            monkeypatch.setenv("REPRO_EVAL_ENGINE", value)
            before = STATS["compiled_evaluations"]
            assert evaluate(query, instance) == {("a",)}
            assert STATS["compiled_evaluations"] == before + 1

    def test_unknown_engine_is_rejected(self, emp_schema):
        # The verification engine is the only engine a caller names, and
        # the evaluation engines' old names are not among its two.
        from repro import AnalysisSession
        from repro.exceptions import SecurityAnalysisError

        for name in ("compiled", "naive", "sql", "vectorised"):
            with pytest.raises(SecurityAnalysisError, match="exact, sampling"):
                AnalysisSession(emp_schema, engine=name)

    def test_naive_engine_routes_every_entry_point(self):
        # The reference evaluator answers every entry point's question
        # exactly as the production engine does.
        query = q("Q(x) :- R(x, y)")
        fact = Fact("R", ("a", "b"))
        instance = Instance.of(fact, Fact("R", ("c", "d")))
        answer = naive_evaluate(query, instance)
        assert evaluate(query, instance) == answer == {("a",), ("c",)}
        assert evaluate_boolean(query, instance) is naive_evaluate_boolean(query, instance)
        assert _assignment_set(satisfying_assignments(query, instance)) == _assignment_set(
            naive_satisfying_assignments(query, instance)
        )
        assert answer_contains(query, instance, ("a",)) is (("a",) in answer)
        assert delta_changes(query, instance, fact) is (
            answer != naive_evaluate(query, instance.remove(fact))
        )
        _, gained, _ = delta_apply(query, instance, added=[Fact("R", ("e", "f"))])
        assert gained == naive_evaluate(query, instance.add(Fact("R", ("e", "f")))) - answer

    def test_index_built_once_per_instance(self):
        query = q("Q(y) :- R('a', y)")
        instance = Instance.of(Fact("R", ("a", "b")), Fact("R", ("c", "d")))
        evaluate(query, instance)
        builds = INDEX_STATS["builds"]
        evaluate(query, instance)
        evaluate(query, instance)
        assert INDEX_STATS["builds"] == builds
        assert INDEX_STATS["reuses"] >= 2

    def test_single_fact_delta_patches_parent_indexes(self):
        query = q("Q(y) :- R('a', y)")
        instance = Instance.of(Fact("R", ("a", "b")), Fact("R", ("c", "d")))
        evaluate(query, instance)  # builds the ('R', (0,)) index
        builds = INDEX_STATS["builds"]
        patched = INDEX_STATS["patched"]
        child = instance.add(Fact("R", ("a", "z")))
        assert INDEX_STATS["patched"] > patched
        # The child answers through the patched index, never rebuilding.
        assert evaluate(query, child) == frozenset({("b",), ("z",)})
        assert INDEX_STATS["builds"] == builds
        grandchild = child.remove(Fact("R", ("a", "b")))
        assert evaluate(query, grandchild) == frozenset({("z",)})
        assert INDEX_STATS["builds"] == builds
        assert evaluation_stats()["index_patched"] == INDEX_STATS["patched"]

    def test_evaluation_stats_document(self):
        reset_evaluation_stats()
        query = q("Q(x) :- R(x, y), S(y, z)")
        instance = Instance.of(Fact("R", ("a", "b")), Fact("S", ("b", "c")))
        evaluate(query, instance)
        document = evaluation_stats()
        assert "engine" not in document
        assert document["compiled_evaluations"] == 1
        assert document["plans_compiled"] == 1
        assert document["index_probes"] >= 1
        assert document["sql_statements_executed"] == 0
        assert set(document) >= {"index_builds", "index_reuses", "delta_calls"}

    def test_auditor_observability_surfaces_evaluator_counters(self):
        from repro.audit import SecurityAuditor
        from repro.bench import employee_schema

        auditor = SecurityAuditor(employee_schema())
        document = auditor.observability()
        assert "compiled_evaluations" in document["query_evaluation"]
        assert "sql_io_fallbacks" in document["query_evaluation"]


# ---------------------------------------------------------------------------
# crit_D keeps its verdicts whichever evaluator decides Q(I) ≠ Q(I − t)
# ---------------------------------------------------------------------------
def _full_reevaluation(query, instance, fact):
    """``Q(I) ≠ Q(I − t)`` by two full reference evaluations."""
    return naive_evaluate(query, instance) != naive_evaluate(query, instance.remove(fact))


class TestCriticalityCrossValidation:
    @pytest.mark.parametrize("engine", ["compiled", "naive"])
    def test_critical_tuples_invariant_under_eval_engine(self, engine):
        from repro.bench import employee_schema
        from repro.core.criticality import critical_tuples
        from repro.reference import critical_tuples as minimal_critical_tuples
        from repro.reference import critical_tuples_naive

        changes = {"compiled": delta_changes, "naive": _full_reevaluation}[engine]
        schema = employee_schema()
        query = q("S(n) :- Emp(n, d, p)").boolean_specialisation(("n0",))
        results = {
            "minimal": minimal_critical_tuples(query, schema),
            "naive": critical_tuples_naive(query, schema, changes=changes),
            "pruned-parallel": critical_tuples(query, schema),
        }
        assert len(set(results.values())) == 1
        assert results["minimal"]
