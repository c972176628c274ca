"""Tests for the criticality layer: one production engine, two oracles.

Covers the production engine (``PrunedParallelEngine`` behind
``repro.critical_tuples``), its cross-validation against the reference
oracles of :mod:`repro.reference` (the Appendix A minimal search and
the literal Definition 4.4 enumeration; including a property-style
sweep over random small conjunctive queries and a key-constraint
predicate), the ``max_valuations`` forwarding of
``common_critical_tuples``, the uniform option validation of the
sampling verification engine, and the ``critical_fn`` provider
threading through sessions, free functions and the CLI.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import repro
import repro.audit
from repro import (
    AnalysisSession,
    Dictionary,
    decide_security,
    q,
)
from repro.bench import employee_schema, table1_pairs
from repro.cli import main
from repro.core import domain_bounds
from repro.core.criticality import (
    CriticalTupleCache,
    PrunedParallelEngine,
    common_critical_tuples,
    critical_tuples,
    default_cache,
)
from repro.core.criticality import base as criticality_base
from repro.core.criticality.base import _tuple_space_set
from repro.cq.atoms import Atom, Comparison
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.exceptions import IntractableAnalysisError, SecurityAnalysisError
from repro.reference import critical_tuples as minimal_critical_tuples
from repro.reference import critical_tuples_naive
from repro.session.engines import SamplingVerificationEngine
from repro.relational import Domain, RelationSchema, Schema, tuple_space


@pytest.fixture
def recorded(monkeypatch):
    """Count the production engine's ``critical_tuples``/``is_critical`` calls."""
    calls = {"critical_tuples": 0, "is_critical": 0}
    for name in calls:
        original = getattr(PrunedParallelEngine, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PrunedParallelEngine, name, spy)
    return calls


# ---------------------------------------------------------------------------
# The production engine
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_default_is_pruned_parallel(self, recorded, binary_ab_schema):
        query = q("V(x) :- R(x, 'b')")
        expected = PrunedParallelEngine().critical_tuples(query, binary_ab_schema)
        assert repro.critical_tuples(query, binary_ab_schema) == expected
        assert recorded["critical_tuples"] == 2

    def test_unknown_engine_lists_available(self):
        # The one engine lookup left is the verification engine's.
        from repro.session import create_engine

        with pytest.raises(SecurityAnalysisError, match="exact, sampling"):
            create_engine("no-such-engine")

    def test_custom_engine_registration(self, binary_ab_schema):
        # A custom engine plugs in as a critical_fn provider.
        class Recording(PrunedParallelEngine):
            calls = 0

            def critical_tuples(self, *args, **kwargs):
                Recording.calls += 1
                return super().critical_tuples(*args, **kwargs)

        decision = decide_security(
            q("S(y) :- R(y, 'a')"),
            q("V(x) :- R(x, 'b')"),
            binary_ab_schema,
            critical_fn=Recording().critical_tuples,
        )
        assert decision.secure
        assert Recording.calls == 2


class TestTupleSpacePerSchema:
    def test_two_domains_over_one_schema_get_their_own_sets(self, binary_ab_schema):
        ab, abc = binary_ab_schema.domain, Domain.of("a", "b", "c")
        narrow = _tuple_space_set(binary_ab_schema, ab)
        wide = _tuple_space_set(binary_ab_schema, abc)
        assert narrow == frozenset(tuple_space(binary_ab_schema, ab)) and len(narrow) == 4
        assert wide == frozenset(tuple_space(binary_ab_schema, abc)) and len(wide) == 9
        assert _tuple_space_set(binary_ab_schema, ab) is narrow
        assert _tuple_space_set(binary_ab_schema, abc) is wide
        view = q("V(x) :- R(x, y)")
        assert critical_tuples(view, binary_ab_schema, ab) == narrow
        assert critical_tuples(view, binary_ab_schema, abc) == wide

    def test_the_leakage_search_builds_the_tuple_space_once(self, monkeypatch):
        # Table 1 row 2 on 8 facts: 20 statements, each with its crit_D
        # computed over the dictionary's one schema.
        row = next(row for row in table1_pairs() if row.row == 2)
        dictionary = Dictionary.uniform(employee_schema(2, 2, 2), Fraction(1, 3))
        builds = []
        build = criticality_base.tuple_space

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(criticality_base, "tuple_space", counted)
        cache = CriticalTupleCache()
        repro.positive_leakage(row.secret, row.views, dictionary, critical_fn=cache.critical_tuples)
        assert cache.stats().misses > 1
        assert len(builds) == 1

    def test_a_collusion_builds_the_tuple_space_once(self, monkeypatch, emp_schema):
        # One decide_security per view, each over the analysis schema of
        # (emp_schema, domain): the copy, and its tup(D), carry across.
        builds = []
        build = criticality_base.tuple_space

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(criticality_base, "tuple_space", counted)
        cache = CriticalTupleCache()
        views = [f"V{i}(n) :- Emp(n, D{i}, p)" for i in range(5)]
        report = repro.analyse_collusion(
            "S(n, p) :- Emp(n, d, p)", views, emp_schema, critical_fn=cache.critical_tuples
        )
        assert len(report.per_view) == 5 and cache.stats().misses == 6
        assert len(builds) == 1


class TestAnalysisSchemaPerDomain:
    def test_one_copy_per_schema_and_domain(self, emp_schema):
        untyped_schema = domain_bounds.untyped_schema
        domain = Domain.of("a", "b", "c")
        copy = untyped_schema(emp_schema, domain)
        assert untyped_schema(emp_schema, Domain.of("a", "b", "c")) is copy
        assert copy.domain == domain
        assert all(not relation.attribute_domains for relation in copy)
        renamed = untyped_schema(emp_schema, Domain(["a", "b", "c"], name="other"))
        assert renamed is not copy and renamed.domain.name == "other"
        assert untyped_schema(employee_schema(), domain) is not copy

    def test_the_copies_are_bounded(self, monkeypatch, emp_schema):
        monkeypatch.setattr(domain_bounds, "_UNTYPED_SCHEMA_LIMIT", 3)
        domains = [Domain.of("a", f"c{i}") for i in range(6)]
        copies = [domain_bounds.untyped_schema(emp_schema, domain) for domain in domains]
        kept = vars(emp_schema)[domain_bounds._UNTYPED_SCHEMAS_ATTRIBUTE]
        assert len(kept) == 3
        assert domain_bounds.untyped_schema(emp_schema, domains[-1]) is copies[-1]
        assert domain_bounds.untyped_schema(emp_schema, domains[0]) is not copies[0]


# ---------------------------------------------------------------------------
# Property-style cross-validation
# ---------------------------------------------------------------------------
def _random_query(rng: random.Random, values) -> ConjunctiveQuery:
    """A random CQ with ≤2 atoms over ``R/2``, ≤3 variables, few constants."""
    variables = [Variable(name) for name in ("x", "y", "z")]

    def term():
        if rng.random() < 0.25:
            return Constant(rng.choice(values))
        return rng.choice(variables)

    atoms = [
        Atom("R", (term(), term()))
        for _ in range(rng.choice([1, 1, 2]))
    ]
    used = sorted({v for atom in atoms for v in atom.variables})
    comparisons = []
    if len(used) >= 2 and rng.random() < 0.4:
        left, right = rng.sample(used, 2)
        comparisons.append(Comparison(left, rng.choice(["!=", "=", "<"]), right))
    if rng.random() < 0.5 or not used:
        head = ()
    else:
        head = tuple(rng.sample(used, rng.randint(1, len(used))))
    return ConjunctiveQuery(head, atoms, comparisons, name="Qrand")


def _key_constraint(instance) -> bool:
    """At most one ``R`` fact per first-position value (subset-closed)."""
    seen = {}
    for fact in instance.relation("R"):
        if fact.values[0] in seen and seen[fact.values[0]] != fact:
            return False
        seen[fact.values[0]] = fact
    return True


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def engines(self):
        """The two reference oracles and the production engine."""
        return (
            SimpleNamespace(critical_tuples=minimal_critical_tuples),
            SimpleNamespace(critical_tuples=critical_tuples_naive),
            PrunedParallelEngine(),
        )

    def test_random_queries_agree_across_engines(self, engines):
        values = ("a", "b", "c")
        schema = Schema([RelationSchema("R", ("u", "v"))], domain=Domain(values))
        rng = random.Random(20260727)
        minimal, naive, pruned = engines
        for index in range(25):
            query = _random_query(rng, values)
            expected = minimal.critical_tuples(query, schema)
            assert naive.critical_tuples(query, schema) == expected, (
                f"naive disagrees on #{index}: {query!r}"
            )
            assert pruned.critical_tuples(query, schema) == expected, (
                f"pruned-parallel disagrees on #{index}: {query!r}"
            )

    def test_random_queries_agree_under_key_constraint(self, engines):
        values = ("a", "b")
        schema = Schema([RelationSchema("R", ("u", "v"))], domain=Domain(values))
        rng = random.Random(42)
        minimal, naive, pruned = engines
        for index in range(12):
            query = _random_query(rng, values)
            expected = minimal.critical_tuples(
                query, schema, constraint=_key_constraint
            )
            assert (
                naive.critical_tuples(query, schema, constraint=_key_constraint)
                == expected
            ), f"naive disagrees on constrained #{index}: {query!r}"
            assert (
                pruned.critical_tuples(query, schema, constraint=_key_constraint)
                == expected
            ), f"pruned-parallel disagrees on constrained #{index}: {query!r}"

    def test_union_queries_agree(self, engines, binary_ab_schema):
        from repro import union_of

        union = union_of(q("V1() :- R('a', x)"), q("V2() :- R(x, x)"))
        minimal, naive, pruned = engines
        expected = minimal.critical_tuples(union, binary_ab_schema)
        assert naive.critical_tuples(union, binary_ab_schema) == expected
        assert pruned.critical_tuples(union, binary_ab_schema) == expected

    def test_mixed_type_analysis_domain(self, engines):
        # A numeric query constant padded with string fresh constants
        # (the Proposition 4.9 construction) yields a mixed-type domain;
        # candidate ordering must not rely on cross-type comparisons.
        from repro.core.security import decide_security
        from repro.core.criticality import critical_tuples

        schema = Schema([RelationSchema("R", ("u", "v"))], domain=Domain.of(1, "d0"))
        query = q("Q(x) :- R(x, 1)")
        minimal, _, pruned = engines
        assert pruned.critical_tuples(query, schema) == minimal.critical_tuples(
            query, schema
        )
        # End to end through the default engine and a synthesised domain;
        # the explanation must render even when the witnessing tuples mix
        # numeric and string constants.
        decision = decide_security(query, q("V(x) :- R(x, y)"), schema)
        assert decision.secure is not None
        assert decision.explain()

    def test_typed_schema_disables_symmetry_but_agrees(self, engines, emp_schema):
        # Per-attribute domains restrict the tuple space, so the orbit
        # reduction must deactivate — results still have to be identical.
        minimal, _, pruned = engines
        query = q("V(n) :- Emp(n, d, p)")
        assert pruned.critical_tuples(query, emp_schema) == minimal.critical_tuples(
            query, emp_schema
        )

    def test_typed_schema_join_checks_tuple_space(self, engines):
        # Regression: a witness grounding a *different* atom to a fact
        # outside the per-attribute tuple space must be rejected (the
        # pruned engine used to skip the membership check here).
        schema = Schema(
            [
                RelationSchema("R", ("x",)),
                RelationSchema("S", ("x",), {"x": Domain.of("a")}),
            ],
            domain=Domain.of("a", "b"),
        )
        query = q("Q() :- R(x), S(x)")
        minimal, naive, pruned = engines
        expected = minimal.critical_tuples(query, schema)
        assert naive.critical_tuples(query, schema) == expected
        assert pruned.critical_tuples(query, schema) == expected

    def test_out_of_domain_constant_checks_tuple_space(self, engines):
        # Regression: a body constant outside the analysis domain makes
        # the query unsatisfiable over tup(D); the engines must agree
        # that nothing is critical.
        schema = Schema(
            [RelationSchema("R", ("x",)), RelationSchema("S", ("x",))],
            domain=Domain.of("a", "b"),
        )
        query = q("Q() :- R(x), S('z')")
        minimal, naive, pruned = engines
        assert minimal.critical_tuples(query, schema) == frozenset()
        assert naive.critical_tuples(query, schema) == frozenset()
        assert pruned.critical_tuples(query, schema) == frozenset()


# ---------------------------------------------------------------------------
# common_critical_tuples: max_valuations forwarding (regression)
# ---------------------------------------------------------------------------
class TestMaxValuationsForwarding:
    # The bound reaches the provider.  These tests pass the uncached
    # production engine: a cached provider keys its sets without the
    # bound, so a warm process cache would serve them unchecked.
    def test_bound_reaches_view_computation(self, binary_abc_schema):
        # The secret's own search binds every variable from the seed
        # (total = 1 valuation), so only the view's set can exceed the
        # bound.
        secret = q("S(x, y) :- R(x, y)")
        view = q("V() :- R(x, y), R(y, z)")
        with pytest.raises(IntractableAnalysisError):
            common_critical_tuples(
                secret, [view], binary_abc_schema, critical_fn=critical_tuples, max_valuations=1
            )

    def test_bound_reaches_secret_computation(self, binary_abc_schema):
        secret = q("S() :- R(x, y), R(y, z)")
        view = q("V(x, y) :- R(x, y)")
        with pytest.raises(IntractableAnalysisError):
            common_critical_tuples(
                secret, [view], binary_abc_schema, critical_fn=critical_tuples, max_valuations=1
            )

    def test_generous_bound_unchanged(self, binary_abc_schema):
        secret = q("S(x, y) :- R(x, y)")
        view = q("V() :- R(x, y), R(y, z)")
        bounded = common_critical_tuples(
            secret, [view], binary_abc_schema, critical_fn=critical_tuples, max_valuations=10_000
        )
        unbounded = common_critical_tuples(
            secret, [view], binary_abc_schema, critical_fn=critical_tuples
        )
        assert bounded == unbounded and bounded

    def test_engine_selection(self, binary_ab_schema):
        # The full sets may come from any provider with the engine
        # signature; the Appendix A oracle gives the production answer.
        secret = q("S() :- R('a', x)")
        view = q("V() :- R(x, 'b')")
        default = common_critical_tuples(secret, [view], binary_ab_schema)
        assert default
        assert (
            common_critical_tuples(
                secret, [view], binary_ab_schema, critical_fn=minimal_critical_tuples
            )
            == default
        )


# ---------------------------------------------------------------------------
# Sampling-engine option validation (regression)
# ---------------------------------------------------------------------------
class TestSamplingOptionValidation:
    @pytest.fixture
    def engine(self):
        return SamplingVerificationEngine()

    @pytest.mark.parametrize("samples", [0, -5, 2.5, "100", True])
    def test_bad_sample_counts_rejected(self, engine, samples):
        with pytest.raises(SecurityAnalysisError) as excinfo:
            engine.verify(None, [], None, samples=samples)
        assert repr(samples) in str(excinfo.value)

    @pytest.mark.parametrize(
        "tolerance", [float("nan"), float("inf"), float("-inf"), -1.0, 0, "4", True]
    )
    def test_bad_tolerances_rejected(self, engine, tolerance):
        with pytest.raises(SecurityAnalysisError) as excinfo:
            engine.verify(None, [], None, tolerance_sigmas=tolerance)
        assert repr(tolerance) in str(excinfo.value)

    def test_valid_options_still_verify(self, engine, binary_ab_schema):
        dictionary = Dictionary.uniform(binary_ab_schema, Fraction(1, 2))
        secret = q("S(y) :- R(y, 'a')")
        view = q("V(x) :- R(x, 'b')")
        assert engine.verify(
            secret, [view], dictionary, samples=200, tolerance_sigmas=6.0
        )


# ---------------------------------------------------------------------------
# Stack threading: sessions, free functions, the CLI
# ---------------------------------------------------------------------------
class TestStackThreading:
    def test_session_default_engine(self, recorded, emp_schema):
        AnalysisSession(emp_schema).decide(
            "S(n) :- Emp(n, 'HR', p)", "V(n) :- Emp(n, 'Mgmt', p)"
        )
        assert recorded["critical_tuples"] == 2

    def test_sessions_agree_across_engines(self, emp_schema):
        secret = q("S(n, p) :- Emp(n, d, p)")
        views = [q("V(n, d) :- Emp(n, d, p)"), q("W(n) :- Emp(n, 'Mgmt', p)")]
        result = AnalysisSession(emp_schema).decide(secret, views)
        reference = decide_security(
            secret, views, emp_schema, critical_fn=minimal_critical_tuples
        )
        assert (
            result.secure,
            result.decision.common_critical,
            result.decision.secret_critical,
        ) == (reference.secure, reference.common_critical, reference.secret_critical)

    def test_free_functions_accept_engine(self, emp_schema):
        secret = q("S(n) :- Emp(n, 'HR', p)")
        view = q("V(n) :- Emp(n, 'Mgmt', p)")
        default = decide_security(secret, view, emp_schema)
        decision = decide_security(
            secret, view, emp_schema, critical_fn=minimal_critical_tuples
        )
        assert decision.secure == default.secure
        assert decision.common_critical == default.common_critical

    def test_collusion_and_knowledge_accept_engine(self, emp_schema):
        from repro import analyse_collusion, decide_with_knowledge
        from repro.core.prior import CardinalityConstraintKnowledge

        secret = q("S(n, p) :- Emp(n, d, p)")
        views = [q("V(n, d) :- Emp(n, d, p)"), q("W(n) :- Emp(n, 'Mgmt', p)")]
        baseline = analyse_collusion(secret, views, emp_schema)
        report = analyse_collusion(
            secret, views, emp_schema, critical_fn=minimal_critical_tuples
        )
        assert [d.secure for d in report.per_view] == [
            d.secure for d in baseline.per_view
        ]

        knowledge = CardinalityConstraintKnowledge("exactly", 2)
        decision = decide_with_knowledge(
            secret, views, knowledge, emp_schema, critical_fn=minimal_critical_tuples
        )
        assert decision.secure == decide_with_knowledge(
            secret, views, knowledge, emp_schema
        ).secure

    def test_tuple_status_rule_reads_the_session_cache(self, recorded, binary_ab_schema):
        # Corollary 5.4's common critical set takes crit(S) and crit(V)
        # from the session's cache: computed once, then served from it.
        from repro.core.prior import TupleStatusKnowledge

        session = AnalysisSession(binary_ab_schema)
        pair = ("S(x, y) :- R(x, y)", "V(x) :- R(x, y)", TupleStatusKnowledge())
        first = session.with_knowledge(*pair)
        assert first.decision.secure is None  # insecure pair, nothing disclosed
        assert (first.cache_used.misses, first.cache_used.hits) == (2, 0)
        again = session.with_knowledge(*pair)
        assert (again.cache_used.misses, again.cache_used.hits) == (0, 2)
        assert again.decision.evidence == first.decision.evidence
        assert recorded == {"critical_tuples": 2, "is_critical": 0}

    def test_positive_leakage_accepts_engine(self, binary_ab_schema):
        from repro import epsilon_of_theorem_6_1, positive_leakage

        dictionary = Dictionary.uniform(binary_ab_schema, Fraction(1, 2))
        secret = q("S() :- R('a', 'a')")
        view = q("V() :- R('a', x)")
        assert positive_leakage(secret, view, dictionary).leakage > 0
        assert epsilon_of_theorem_6_1(
            secret, view, dictionary, critical_fn=minimal_critical_tuples
        ) == epsilon_of_theorem_6_1(secret, view, dictionary)

    def test_unknown_engine_raises_everywhere(self, emp_schema):
        # The engine keyword is gone: a stale caller fails loudly
        # instead of silently running an engine it did not ask for.
        with pytest.raises(TypeError, match="criticality_engine"):
            AnalysisSession(emp_schema, criticality_engine="minimal")
        with pytest.raises(TypeError, match="criticality_engine"):
            decide_security(
                q("S(n) :- Emp(n, 'HR', p)"),
                q("V(n) :- Emp(n, 'Mgmt', p)"),
                emp_schema,
                criticality_engine="minimal",
            )


# ---------------------------------------------------------------------------
# One default provider: without critical_fn, every entry point reads
# default_cache()
# ---------------------------------------------------------------------------
_SECRET = "S(y) :- R(x, y)"
_VIEW = "V(x) :- R(x, y)"


def _half(schema):
    return Dictionary.uniform(schema, Fraction(1, 2))


_ENTRY_POINTS = {
    "decide_security": lambda schema: repro.decide_security(_SECRET, _VIEW, schema),
    "is_secure": lambda schema: repro.core.security.is_secure(q(_SECRET), q(_VIEW), schema),
    "analyse_collusion": lambda schema: repro.analyse_collusion(_SECRET, [_VIEW], schema),
    "largest_safe_view_set": lambda schema: repro.core.largest_safe_view_set(
        q(_SECRET), [q(_VIEW)], schema
    ),
    "decide_with_knowledge": lambda schema: repro.decide_with_knowledge(
        _SECRET, _VIEW, repro.core.KeyConstraintKnowledge({"R": [0]}), schema
    ),
    "decide_with_key_constraints": lambda schema: repro.core.decide_with_key_constraints(
        q(_SECRET), q(_VIEW), repro.core.KeyConstraintKnowledge({"R": [0]}), schema
    ),
    "decide_with_cardinality_constraint": (
        lambda schema: repro.core.decide_with_cardinality_constraint(
            q(_SECRET), q(_VIEW), repro.core.CardinalityConstraintKnowledge("exactly", 1), schema
        )
    ),
    "decide_with_tuple_status": lambda schema: repro.core.decide_with_tuple_status(
        q(_SECRET), q(_VIEW), repro.core.TupleStatusKnowledge(), schema
    ),
    "decide_with_prior_view": lambda schema: repro.core.decide_with_prior_view(
        q("S() :- R('a', x)"), q("V() :- R(x, 'b')"), q("U() :- R('a', 'b')"), schema
    ),
    "common_critical_tuples": lambda schema: common_critical_tuples(
        q(_SECRET), [q(_VIEW)], schema
    ),
    "positive_leakage": lambda schema: repro.positive_leakage(_SECRET, _VIEW, _half(schema)),
    "epsilon_of_theorem_6_1": lambda schema: repro.epsilon_of_theorem_6_1(
        q(_SECRET), q(_VIEW), _half(schema)
    ),
    "classify_practical_security": lambda schema: repro.classify_practical_security(
        "S() :- R('a', x)", "V() :- R(x, 'b')", schema
    ),
    "classify_disclosure": lambda schema: repro.audit.classify_disclosure(
        q(_SECRET), q(_VIEW), schema, _half(schema)
    ),
    "encrypted_view_security": lambda schema: repro.core.encrypted_view_security(
        q(_SECRET), repro.core.EncryptedView("R"), schema
    ),
}


class TestDefaultProvider:
    @pytest.fixture
    def readers(self, monkeypatch):
        """The caches whose ``critical_tuples`` the call reads, in order."""
        caches = []
        original = CriticalTupleCache.critical_tuples

        def spy(self, *args, **kwargs):
            caches.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CriticalTupleCache, "critical_tuples", spy)
        return caches

    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    def test_a_missing_provider_is_the_process_cache(self, name, readers, binary_ab_schema):
        _ENTRY_POINTS[name](binary_ab_schema)
        assert readers
        assert all(cache is default_cache() for cache in readers)


class TestCLIFlag:
    @pytest.fixture
    def schema_file(self, tmp_path):
        document = {
            "relations": [
                {
                    "name": "Emp",
                    "attributes": ["name", "department", "phone"],
                    "attribute_domains": {
                        "name": ["n0", "n1"],
                        "department": ["d0", "d1"],
                        "phone": ["p0", "p1"],
                    },
                }
            ]
        }
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_decide_with_naive_engine_on_tiny_schema(self, tmp_path, capsys):
        # Over R(X,Y) with two values the tuple space is 4, small enough
        # for the Definition 4.4 enumeration to check the CLI's verdict.
        document = {"relations": [{"name": "R", "attributes": ["X", "Y"]}],
                    "domain": ["a", "b"]}
        path = tmp_path / "binary.json"
        path.write_text(json.dumps(document))
        exit_code = main(
            [
                "decide",
                "--schema", str(path),
                "--secret", "S(y) :- R(y, 'a')",
                "--view", "V(x) :- R(x, 'b')",
            ]
        )
        assert exit_code == 0
        assert "secure" in capsys.readouterr().out
        from repro.bench import binary_schema

        schema = binary_schema()
        assert not critical_tuples_naive(
            q("S(y) :- R(y, 'a')"), schema
        ) & critical_tuples_naive(q("V(x) :- R(x, 'b')"), schema)

    def test_unknown_engine_exits_two(self, schema_file, capsys):
        # The engine flags are gone; passing one is a usage error (exit
        # 2), never a verdict.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "decide",
                    "--schema", schema_file,
                    "--secret", "S(n) :- Emp(n, HR, p)",
                    "--view", "V(n) :- Emp(n, Mgmt, p)",
                    "--criticality-engine", "minimal",
                ]
            )
        assert excinfo.value.code == 2
        assert "--criticality-engine" in capsys.readouterr().err

    def test_plan_with_engine_flag(self, tmp_path, capsys):
        document = {
            "relations": [
                {
                    "name": "Emp",
                    "attributes": ["name", "department", "phone"],
                    "attribute_domains": {
                        "name": ["n0", "n1"],
                        "department": ["d0", "d1"],
                        "phone": ["p0", "p1"],
                    },
                }
            ],
            "secrets": {"hr_names": "S(n) :- Emp(n, HR, p)"},
            "views": {"bob": "V(n) :- Emp(n, Mgmt, p)"},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        exit_code = main(["plan", "--plan", str(path), "--engine", "exact"])
        assert exit_code == 0
        assert "hr_names" in capsys.readouterr().out
