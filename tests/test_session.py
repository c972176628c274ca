"""Unit tests for the session-based analysis API.

Covers compilation (canonical forms, fingerprints), decision/batch
parity with the legacy free functions on the suite's standard cases,
cache hit/miss/eviction accounting, the engine lookup, the publishing
plan batch audit and the uniform query-type validation.
"""

from fractions import Fraction

import pytest

from repro import (
    AnalysisSession,
    Dictionary,
    PublishingPlan,
    q,
    union_of,
)
from repro.core import (
    CardinalityConstraintKnowledge,
    KeyConstraintKnowledge,
    TupleStatusKnowledge,
    analyse_collusion,
    classify_practical_security,
    decide_security,
    decide_with_knowledge,
    independence_gap,
    positive_leakage,
    practical_security_check,
    verify_security_probabilistically,
)
from repro.exceptions import SecurityAnalysisError
from repro.reference import critical_tuples
from repro.relational import Domain, Fact
from repro.session import (
    CriticalTupleCache,
    ExactVerificationEngine,
    SamplingVerificationEngine,
    canonical_query_key,
    create_engine,
    default_cache,
    query_fingerprint,
)


@pytest.fixture
def emp_session(emp_schema) -> AnalysisSession:
    return AnalysisSession(emp_schema)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
class TestCompile:
    def test_compile_parses_strings(self, emp_session):
        compiled = emp_session.compile("S(n) :- Emp(n, HR, p)")
        assert compiled.name == "S"
        assert compiled.arity == 1
        assert not compiled.is_boolean

    def test_alpha_equivalent_queries_share_one_compiled_object(self, emp_session):
        first = emp_session.compile("V(x) :- Emp(x, HR, y)")
        second = emp_session.compile("W(n) :- Emp(n, HR, p)")
        assert first is second
        assert first.canonical_key == second.canonical_key

    def test_fingerprint_ignores_names_and_variable_spellings(self):
        assert query_fingerprint(q("V(x) :- R(x, y)")) == query_fingerprint(
            q("Other(a) :- R(a, b)")
        )
        assert query_fingerprint(q("V(x) :- R(x, y)")) != query_fingerprint(
            q("V(y) :- R(x, y)")
        )

    def test_canonical_key_distinguishes_constants_from_variables(self):
        assert canonical_query_key(q("V(x) :- R(x, 'a')")) != canonical_query_key(
            q("V(x) :- R(x, y)")
        )
        # Same constant spelled as int vs. string stays distinct.
        assert canonical_query_key(q("V(x) :- R(x, 1)")) != canonical_query_key(
            q("V(x) :- R(x, '1')")
        )

    def test_union_canonical_key_ignores_disjunct_order(self):
        left = union_of(q("V(x) :- R(x, 'a')"), q("V(x) :- R(x, 'b')"))
        right = union_of(q("V(x) :- R(x, 'b')"), q("V(x) :- R(x, 'a')"))
        assert canonical_query_key(left) == canonical_query_key(right)

    def test_compiled_critical_tuples_match_direct_computation(
        self, binary_ab_schema
    ):
        session = AnalysisSession(binary_ab_schema)
        compiled = session.compile("V(x) :- R(x, y)")
        domain = Domain.of("a", "b")
        direct = critical_tuples(q("V(x) :- R(x, y)"), binary_ab_schema, domain)
        assert compiled.critical_tuples(domain) == direct
        # The second call is answered from the cache.
        before = session.cache_stats
        compiled.critical_tuples(domain)
        after = session.cache_stats
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_compile_rejects_unsupported_types(self, emp_session):
        with pytest.raises(SecurityAnalysisError, match="ConjunctiveQuery"):
            emp_session.compile(42)


# ---------------------------------------------------------------------------
# Parity with the legacy free functions
# ---------------------------------------------------------------------------
SECURITY_CASES = [
    # (secret, views, expected_secure) — the decision cases of test_security.py
    ("S4(n) :- Emp(n, HR, p)", ["V4(n) :- Emp(n, Mgmt, p)"], True),
    ("S1(d) :- Emp(n, d, p)", ["V1(n, d) :- Emp(n, d, p)"], False),
    (
        "S2(n, p) :- Emp(n, d, p)",
        ["V2(n, d) :- Emp(n, d, p)", "V2p(d, p) :- Emp(n, d, p)"],
        False,
    ),
    ("S3(p) :- Emp(n, d, p)", ["V3(n) :- Emp(n, d, p)"], False),
    (
        "S(n) :- Emp(n, HR, p)",
        ["V(n) :- Emp(n, Mgmt, p)", "W(n, d) :- Emp(n, d, p)"],
        False,
    ),
]


class TestLegacyParity:
    @pytest.mark.parametrize("secret,views,expected", SECURITY_CASES)
    def test_decide_matches_decide_security(self, emp_schema, secret, views, expected):
        session = AnalysisSession(emp_schema)
        legacy = decide_security(q(secret), [q(v) for v in views], emp_schema)
        result = session.decide(secret, views)
        assert result.secure is expected
        assert result.decision.secure == legacy.secure
        assert result.decision.common_critical == legacy.common_critical

    def test_decide_example_42_43(
        self, binary_ab_schema, example_42_queries, example_43_queries
    ):
        session = AnalysisSession(binary_ab_schema)
        for secret, view in (example_42_queries, example_43_queries):
            legacy = decide_security(secret, view, binary_ab_schema)
            assert session.decide(secret, view).secure == legacy.secure

    def test_collusion_matches_analyse_collusion(self, emp_schema):
        secret = q("S(n, p) :- Emp(n, HR, p)")
        views = {
            "bob": q("Vb(n, d) :- Emp(n, d, p)"),
            "carol": q("Vc(n) :- Emp(n, Mgmt, p)"),
        }
        legacy = analyse_collusion(secret, views, emp_schema)
        session = AnalysisSession(emp_schema)
        result = session.collusion(secret, views)
        assert result.verdict == legacy.secure_overall
        assert result.report.insecure_recipients == legacy.insecure_recipients
        assert result.report.recipients == ("bob", "carol")
        assert [d.secure for d in result.report.per_view] == [
            d.secure for d in legacy.per_view
        ]

    def test_collusion_all_secure_case(self, manufacturing):
        secret = q("S(p, c) :- Cost(p, c)")
        views = {
            "supplier": q("V1(p, x, y) :- Part(p, x, y)"),
            "retailer": q("V2(p, f, s) :- Product(p, f, s)"),
            "tax": q("V3(p, l) :- Labor(p, l)"),
        }
        legacy = analyse_collusion(secret, views, manufacturing)
        result = AnalysisSession(manufacturing).collusion(secret, views)
        assert result.verdict is True
        assert result.verdict == legacy.secure_overall

    def test_with_knowledge_matches_legacy(self, emp_schema):
        secret = q("S(p) :- Emp('Ann', HR, p)")
        view = q("V(n) :- Emp(n, d, p)")
        session = AnalysisSession(emp_schema)
        for knowledge in (
            KeyConstraintKnowledge({"Emp": (0,)}),
            CardinalityConstraintKnowledge("at_most", 3),
            TupleStatusKnowledge(present=[Fact("Emp", ("Ann", "HR", "p0"))]),
        ):
            legacy = decide_with_knowledge(secret, view, knowledge, emp_schema)
            result = session.with_knowledge(secret, view, knowledge)
            assert result.decision.secure == legacy.secure
            assert result.decision.method == legacy.method
            assert result.conclusive == legacy.conclusive

    def test_leakage_matches_positive_leakage(self, binary_ab_schema):
        secret = q("S() :- R('a', 'b')")
        view = q("V() :- R('a', x)")
        dictionary = Dictionary.uniform(binary_ab_schema, Fraction(1, 2))
        legacy = positive_leakage(secret, view, dictionary)
        session = AnalysisSession(binary_ab_schema, dictionary=dictionary)
        result = session.leakage(secret, view)
        assert result.measurement.leakage == legacy.leakage
        assert result.verdict == (legacy.leakage == 0)

    def test_practical_matches_classify_practical_security(self, binary_ab_schema):
        secret = q("S() :- R('a', 'b')")
        view = q("V() :- R('a', x)")
        legacy = classify_practical_security(secret, view, binary_ab_schema)
        result = AnalysisSession(binary_ab_schema).practical(secret, view)
        assert result.report.level == legacy.level
        assert result.report.limit == pytest.approx(legacy.limit)

    def test_quick_check_wraps_practical_verdict(self, emp_session):
        certified = emp_session.quick_check(
            "S(n) :- Emp(n, HR, p)", "V(n) :- Emp(n, Mgmt, p)"
        )
        # Distinct constants: no subgoal pair unifies — a sound certificate.
        assert certified.verdict is True
        # When subgoals do unify the check cannot certify the pair, so the
        # verdict is inconclusive rather than insecure.
        flagged = emp_session.quick_check(
            "S(n) :- Emp(n, d, p)", "V(n) :- Emp(n, Mgmt, p)"
        )
        assert flagged.verdict is None
        assert flagged.check.possibly_insecure
        with pytest.raises(SecurityAnalysisError):
            flagged.secure


# ---------------------------------------------------------------------------
# Shims: the legacy entry points share the process-wide default cache
# ---------------------------------------------------------------------------
class TestDefaultSessionShims:
    def test_decide_security_uses_shared_default_cache(self, emp_schema):
        cache = default_cache()
        cache.clear()
        secret = q("S(n) :- Emp(n, HR, p)")
        view = q("V(n) :- Emp(n, Mgmt, p)")
        before = cache.thread_stats()
        decide_security(secret, view, emp_schema)
        first = cache.thread_stats().delta(before)
        assert first.misses == 2 and first.hits == 0
        decide_security(secret, view, emp_schema)
        second = cache.thread_stats().delta(before)
        assert second.misses == first.misses
        assert second.hits == first.hits + 2
        # A session over the default cache shares the free functions' sets.
        session = AnalysisSession(emp_schema, cache=cache)
        assert session.decide(secret, view).cache_used.misses == 0
        cache.clear()

    def test_collusion_computes_the_secret_once_on_the_default_cache(self, emp_schema):
        cache = default_cache()
        cache.clear()
        views = [q(f"V{i}(n) :- Emp(n, D{i}, p)") for i in range(4)]
        before = cache.thread_stats()
        analyse_collusion(q("S(n, p) :- Emp(n, HR, p)"), views, emp_schema)
        used = cache.thread_stats().delta(before)
        # k views: the secret once and each view once miss; the secret's
        # k - 1 further lookups hit.
        assert (used.misses, used.hits) == (len(views) + 1, len(views) - 1)
        cache.clear()

    def test_legacy_error_behaviour_is_preserved(self, binary_ab_schema):
        with pytest.raises(SecurityAnalysisError):
            decide_security(q("S() :- R(x, y)"), [], binary_ab_schema)
        with pytest.raises(SecurityAnalysisError):
            decide_security(
                q("S(y) :- R(x, y)"),
                q("V(x) :- R(x, y)"),
                binary_ab_schema,
                domain=Domain.of("a"),
            )

    def test_decide_security_rejects_non_query_secret(self, emp_schema):
        with pytest.raises(SecurityAnalysisError, match="secret must be"):
            decide_security(12345, q("V(n) :- Emp(n, Mgmt, p)"), emp_schema)

    def test_decide_security_rejects_non_query_view(self, emp_schema):
        with pytest.raises(SecurityAnalysisError, match="view must be"):
            decide_security(q("S(n) :- Emp(n, HR, p)"), [object()], emp_schema)

    def test_session_validates_types_uniformly(self, emp_session):
        with pytest.raises(SecurityAnalysisError, match="secret must be"):
            emp_session.decide(None, "V(n) :- Emp(n, Mgmt, p)")
        with pytest.raises(SecurityAnalysisError, match="view must be"):
            emp_session.decide("S(n) :- Emp(n, HR, p)", 3.14)

    def test_union_secret_still_supported(self, emp_schema):
        union_secret = union_of(
            q("S(n) :- Emp(n, HR, p)"), q("S(n) :- Emp(n, Mgmt, p)")
        )
        decision = decide_security(
            union_secret, q("V(d) :- Emp(n, d, p)"), emp_schema
        )
        assert decision.secure is False


# ---------------------------------------------------------------------------
# One input contract for the free entry points
# ---------------------------------------------------------------------------
CONTRACT_SECRET = "S(x) :- R(x, 'b')"
CONTRACT_VIEWS = ("V(x) :- R(x, y)", "W(y) :- R('a', y)")

#: name → (call(secret, views, schema, dictionary, **critical_fn), takes critical_fn)
MULTI_VIEW_ENTRY_POINTS = {
    "decide_security": (
        lambda s, v, schema, dictionary, **o: decide_security(s, v, schema, **o), True
    ),
    "analyse_collusion": (
        lambda s, v, schema, dictionary, **o: analyse_collusion(s, v, schema, **o), True
    ),
    "decide_with_knowledge": (
        lambda s, v, schema, dictionary, **o: decide_with_knowledge(
            s, v, KeyConstraintKnowledge({"R": (0,)}), schema, **o
        ),
        True,
    ),
    "positive_leakage": (
        lambda s, v, schema, dictionary: positive_leakage(s, v, dictionary), False
    ),
    "practical_security_check": (
        lambda s, v, schema, dictionary: practical_security_check(s, v), False
    ),
    "verify_security_probabilistically": (
        lambda s, v, schema, dictionary: verify_security_probabilistically(s, v, dictionary),
        False,
    ),
    "independence_gap": (
        lambda s, v, schema, dictionary: independence_gap(s, v, dictionary), False
    ),
}

VIEW_SHAPES = {
    "one view": lambda views: views[0],
    "list": list,
    "mapping": lambda views: {f"recipient{i}": view for i, view in enumerate(views)},
}


CONTRACT_CASES = [
    (name, shape, explicit)
    for name, (_, takes_critical_fn) in MULTI_VIEW_ENTRY_POINTS.items()
    for shape in VIEW_SHAPES
    for explicit in ((False, True) if takes_critical_fn else (False,))
]


class TestInputContract:
    """Every free entry point takes the same inputs, with or without ``critical_fn``."""

    @pytest.mark.parametrize("name,shape,explicit", CONTRACT_CASES)
    def test_datalog_strings_equal_the_query_object_call(
        self, binary_ab_schema, half_dictionary, name, shape, explicit
    ):
        call, _ = MULTI_VIEW_ENTRY_POINTS[name]
        options = {"critical_fn": critical_tuples} if explicit else {}
        shaped = VIEW_SHAPES[shape]
        from_strings = call(
            CONTRACT_SECRET, shaped(CONTRACT_VIEWS), binary_ab_schema, half_dictionary, **options
        )
        from_objects = call(
            q(CONTRACT_SECRET),
            shaped([q(view) for view in CONTRACT_VIEWS]),
            binary_ab_schema,
            half_dictionary,
            **options,
        )
        assert from_strings == from_objects

    @pytest.mark.parametrize("name,explicit", sorted({(n, e) for n, _, e in CONTRACT_CASES}))
    @pytest.mark.parametrize(
        "secret,views",
        [(CONTRACT_SECRET, []), (CONTRACT_SECRET, [42]), (42, CONTRACT_VIEWS)],
        ids=["no views", "non-query view", "non-query secret"],
    )
    def test_no_views_and_non_queries_raise(
        self, binary_ab_schema, half_dictionary, name, explicit, secret, views
    ):
        call, _ = MULTI_VIEW_ENTRY_POINTS[name]
        options = {"critical_fn": critical_tuples} if explicit else {}
        with pytest.raises(SecurityAnalysisError):
            call(secret, views, binary_ab_schema, half_dictionary, **options)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_classify_practical_security_takes_strings(self, binary_ab_schema, explicit):
        options = {"critical_fn": critical_tuples} if explicit else {}
        secret, view = "S() :- R('a', 'b')", "V() :- R('a', x)"
        assert classify_practical_security(
            secret, view, binary_ab_schema, **options
        ) == classify_practical_security(q(secret), q(view), binary_ab_schema, **options)
        for bad_secret, bad_view in ((secret, []), (secret, 42), (42, view)):
            with pytest.raises(SecurityAnalysisError):
                classify_practical_security(bad_secret, bad_view, binary_ab_schema, **options)


# ---------------------------------------------------------------------------
# Cache accounting and eviction
# ---------------------------------------------------------------------------
class TestCacheAccounting:
    def test_collusion_computes_each_crit_once(self, emp_schema):
        session = AnalysisSession(emp_schema)
        secret = q("S(n, p) :- Emp(n, HR, p)")
        views = [q(f"V{i}(n) :- Emp(n, D{i}, p)") for i in range(4)]
        result = session.collusion(secret, views)
        # 1 secret + 4 views computed once; 3 further secret lookups hit.
        assert result.cache_used.misses == 5
        assert result.cache_used.hits == 3

    def test_repeat_analysis_is_all_hits(self, emp_schema):
        session = AnalysisSession(emp_schema)
        first = session.decide("S(n) :- Emp(n, HR, p)", "V(n) :- Emp(n, Mgmt, p)")
        second = session.decide("S(n) :- Emp(n, HR, p)", "V(n) :- Emp(n, Mgmt, p)")
        assert first.cache_used.misses == 2
        assert second.cache_used.misses == 0
        assert second.cache_used.hits == 2
        assert second.decision.secure == first.decision.secure

    def test_results_carry_timing(self, emp_session):
        result = emp_session.decide("S(n) :- Emp(n, HR, p)", "V(n) :- Emp(n, Mgmt, p)")
        assert result.elapsed_seconds >= 0.0
        assert result.kind == "decide"

    def test_lru_eviction(self):
        cache = CriticalTupleCache(maxsize=2)
        cache.get_or_compute("a", lambda: frozenset({1}))
        cache.get_or_compute("b", lambda: frozenset({2}))
        cache.get_or_compute("a", lambda: frozenset({1}))  # refresh "a"
        cache.get_or_compute("c", lambda: frozenset({3}))  # evicts "b"
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2
        assert stats.hits == 1
        assert stats.misses == 3

    def test_cache_rejects_nonpositive_size(self):
        with pytest.raises(SecurityAnalysisError):
            CriticalTupleCache(maxsize=0)

    def test_session_cache_eviction_keeps_answers_correct(self, emp_schema):
        session = AnalysisSession(emp_schema, cache=CriticalTupleCache(2))
        verdicts = [
            session.decide("S(n) :- Emp(n, HR, p)", f"V{i}(n) :- Emp(n, D{i}, p)").secure
            for i in range(5)
        ]
        assert session.cache_stats.evictions > 0
        fresh = AnalysisSession(emp_schema)
        assert verdicts == [
            fresh.decide("S(n) :- Emp(n, HR, p)", f"V{i}(n) :- Emp(n, D{i}, p)").secure
            for i in range(5)
        ]

    def test_cache_stats_delta(self):
        cache = CriticalTupleCache(maxsize=4)
        cache.get_or_compute("x", frozenset)
        before = cache.stats()
        cache.get_or_compute("x", frozenset)
        cache.get_or_compute("y", frozenset)
        delta = cache.stats().delta(before)
        assert delta.hits == 1
        assert delta.misses == 1
        assert 0 < delta.hit_rate < 1

    def test_concurrent_access_is_safe(self):
        # Regression guard for the audit service, whose worker pool shares
        # one session (hence one cache) across threads: hammer get/put,
        # eviction, stats and clear from many threads and verify the
        # counters stay exact and the LRU bound holds.
        import threading

        cache = CriticalTupleCache(maxsize=16)
        errors = []
        barrier = threading.Barrier(8)

        def _hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=10)
                for step in range(400):
                    key = (worker + step) % 40  # overlapping keys force races
                    value = cache.get_or_compute(key, lambda k=key: frozenset({k}))
                    assert value == frozenset({key})
                    cache.get(key)
                    assert len(cache) <= 16
                    stats = cache.stats()
                    assert stats.size <= stats.maxsize
                    if step % 97 == 0:
                        cache.clear()
            except Exception as error:  # pragma: no cover - the assertion below
                errors.append(error)

        threads = [threading.Thread(target=_hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"concurrent cache access failed: {errors[:3]}"
        stats = cache.stats()
        # every lookup is accounted exactly once even under contention
        assert stats.lookups == stats.hits + stats.misses
        assert stats.lookups == 8 * 400
        assert stats.size <= stats.maxsize

    def test_concurrent_sessions_share_cache_coherently(self, emp_schema):
        # Many threads running the same decisions on one session must agree
        # with a single-threaded session on every verdict.
        import threading

        session = AnalysisSession(emp_schema)
        reference = AnalysisSession(emp_schema)
        pairs = [
            ("S(n) :- Emp(n, HR, p)", f"V{i}(n) :- Emp(n, D{i % 3}, p)")
            for i in range(6)
        ]
        expected = [reference.decide(s, v).secure for s, v in pairs]
        outcomes = [[None] * len(pairs) for _ in range(6)]
        errors = []

        def _worker(slot: int) -> None:
            try:
                for index, (secret, view) in enumerate(pairs):
                    outcomes[slot][index] = session.decide(secret, view).secure
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=_worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert all(row == expected for row in outcomes)

    def test_cache_used_counts_only_the_calls_own_lookups(self, emp_schema, monkeypatch):
        # The service's worker threads share sessions: a decide blocked
        # inside its crit_D miss while another thread runs a whole decide
        # must still report only its own two lookups.
        import threading

        import repro.core.criticality.cache as cache_module

        session = AnalysisSession(emp_schema)
        entered, release = threading.Event(), threading.Event()
        original = cache_module.critical_tuples

        def blocking(*args, **kwargs):
            if threading.current_thread().name == "blocked" and not entered.is_set():
                entered.set()
                release.wait(timeout=60)
            return original(*args, **kwargs)

        monkeypatch.setattr(cache_module, "critical_tuples", blocking)
        results = {}

        def blocked_decide() -> None:
            results["blocked"] = session.decide(
                "S(n) :- Emp(n, HR, p)", "V(n) :- Emp(n, Mgmt, p)"
            )

        thread = threading.Thread(target=blocked_decide, name="blocked")
        thread.start()
        assert entered.wait(timeout=60)
        other = session.decide("T(p) :- Emp(n, d, p)", "W(d) :- Emp(n, d, p)")
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        blocked = results["blocked"].cache_used
        assert (blocked.hits, blocked.misses) == (0, 2)
        assert (other.cache_used.hits, other.cache_used.misses) == (0, 2)
        assert session.cache_stats.misses == 4


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------
class TestEngineRegistry:
    def test_known_engines_listed(self):
        assert isinstance(create_engine("exact"), ExactVerificationEngine)
        assert isinstance(create_engine("sampling"), SamplingVerificationEngine)

    def test_unknown_engine_raises_with_available_names(self, emp_schema):
        with pytest.raises(SecurityAnalysisError, match="available engines"):
            AnalysisSession(emp_schema, engine="quantum")
        with pytest.raises(SecurityAnalysisError, match="quantum"):
            create_engine("quantum")

    def test_exact_engine_verifies_examples(
        self, binary_ab_schema, half_dictionary, example_42_queries, example_43_queries
    ):
        session = AnalysisSession(
            binary_ab_schema, dictionary=half_dictionary, engine="exact"
        )
        insecure = session.verify(*example_42_queries)
        secure = session.verify(*example_43_queries)
        assert insecure.verdict is False
        assert secure.verdict is True
        assert insecure.engine == "exact"

    def test_sampling_engine_detects_strong_correlation(
        self, binary_ab_schema, half_dictionary, example_42_queries, example_43_queries
    ):
        session = AnalysisSession(
            binary_ab_schema, dictionary=half_dictionary, engine="sampling"
        )
        assert session.verify(*example_42_queries).verdict is False
        assert session.verify(*example_43_queries).verdict is True

    def test_verify_requires_dictionary(self, emp_session):
        with pytest.raises(SecurityAnalysisError, match="dictionary"):
            emp_session.verify("S(n) :- Emp(n, HR, p)", "V(n) :- Emp(n, Mgmt, p)")


# ---------------------------------------------------------------------------
# Publishing-plan batch audits
# ---------------------------------------------------------------------------
class TestAuditPlan:
    def test_batch_parity_with_legacy_per_pair_decisions(self, emp_schema):
        secrets = {
            "hr_phones": "S1(n, p) :- Emp(n, HR, p)",
            "all_pairs": "S2(n, p) :- Emp(n, d, p)",
        }
        views = {
            "bob": "V(n, d) :- Emp(n, d, p)",
            "carol": "W(n) :- Emp(n, Mgmt, p)",
        }
        session = AnalysisSession(emp_schema)
        result = session.audit_plan(PublishingPlan(secrets=secrets, views=views))
        for entry in result.entries:
            legacy = decide_security(
                q(secrets[entry.secret_name]), q(views[entry.recipient]), emp_schema
            )
            assert entry.secure == legacy.secure
        assert result.verdict is False
        assert {(e.secret_name, e.recipient) for e in result.violations} == {
            ("hr_phones", "bob"),
            ("all_pairs", "bob"),
            ("all_pairs", "carol"),
        }

    def test_coalition_queries_follow_theorem_4_5(self, emp_schema):
        result = AnalysisSession(emp_schema).audit_plan(
            PublishingPlan(
                secrets={"s": "S(n, p) :- Emp(n, HR, p)"},
                views={
                    "bob": "V(n, d) :- Emp(n, d, p)",
                    "carol": "W(n) :- Emp(n, Mgmt, p)",
                },
            )
        )
        assert result.coalition_is_secure("s", ["carol"])
        assert not result.coalition_is_secure("s", ["bob", "carol"])
        assert result.violating_coalitions("s") == (("bob",),)
        with pytest.raises(SecurityAnalysisError):
            result.coalition_is_secure("s", ["nobody"])
        # An unknown secret must raise, not report "secure" vacuously.
        with pytest.raises(SecurityAnalysisError, match="unknown secret"):
            result.coalition_is_secure("typo", ["bob"])
        with pytest.raises(SecurityAnalysisError, match="unknown secret"):
            result.violating_coalitions("typo")

    def test_plan_entry_lookup_and_render(self, emp_schema):
        result = AnalysisSession(emp_schema).audit_plan(
            PublishingPlan(
                secrets={"s": "S(n) :- Emp(n, HR, p)"},
                views={"bob": "V(n) :- Emp(n, Mgmt, p)"},
            )
        )
        assert result.entry("s", "bob").secure is True
        assert "secure against every coalition" in result.render()
        with pytest.raises(SecurityAnalysisError):
            result.entry("s", "nobody")

    def test_plan_requires_secrets_and_views(self):
        with pytest.raises(SecurityAnalysisError):
            PublishingPlan(secrets={}, views={"bob": "V(x) :- R(x, y)"})
        with pytest.raises(SecurityAnalysisError):
            PublishingPlan(secrets=["S(x) :- R(x, y)"], views=[])

    def test_plan_sequences_get_auto_names(self, emp_schema):
        plan = PublishingPlan(
            secrets=["S(n) :- Emp(n, HR, p)"],
            views=["V(n) :- Emp(n, Mgmt, p)", "W(d) :- Emp(n, d, p)"],
        )
        assert plan.secret_names == ("secret1",)
        assert plan.recipients == ("user1", "user2")
        result = AnalysisSession(emp_schema).audit_plan(plan)
        assert result.recipients == ("user1", "user2")

    def test_audit_plan_rejects_non_plan(self, emp_session):
        with pytest.raises(SecurityAnalysisError, match="PublishingPlan"):
            emp_session.audit_plan({"secrets": {}, "views": {}})


class TestAuditorSessionConsistency:
    def test_auditor_rejects_session_over_a_different_schema(
        self, emp_schema, binary_ab_schema
    ):
        from repro import SecurityAuditor

        with pytest.raises(SecurityAnalysisError, match="different schema"):
            SecurityAuditor(emp_schema, session=AnalysisSession(binary_ab_schema))

    def test_auditor_accepts_equivalent_schema_session(self, emp_schema):
        from repro import SecurityAuditor

        session = AnalysisSession(emp_schema)
        auditor = SecurityAuditor(emp_schema, session=session)
        assert auditor.session is session
        assert auditor.decide(
            "S(n) :- Emp(n, HR, p)", "V(n) :- Emp(n, Mgmt, p)"
        ).secure
