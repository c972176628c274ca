"""Unit tests for the disclosure measure of Section 6.1."""

import itertools
from fractions import Fraction

import pytest

from repro import Dictionary, q, union_of
from repro.bench import employee_schema, table1_pairs
from repro.core import (
    critical_tuples,
    decide_security,
    epsilon_of_theorem_6_1,
    leakage_bound_from_epsilon,
    positive_leakage,
    possible_answer_tuples,
)
from repro.core.leakage import _positive_leakage
from repro.cq import conjoin_all
from repro.exceptions import IntractableAnalysisError, SecurityAnalysisError
from repro.probability.kernel import ProbabilityKernel
from repro.relational import Domain, RelationSchema, Schema


@pytest.fixture
def emp_dictionary(emp_schema):
    return Dictionary.uniform(emp_schema, Fraction(1, 4))


@pytest.fixture
def binary_dictionary(binary_ab_schema):
    return Dictionary.uniform(binary_ab_schema, Fraction(1, 2))


class TestPossibleAnswerTuples:
    def test_monotone_query_answers_from_full_instance(self, emp_dictionary):
        rows = possible_answer_tuples(q("V(n, d) :- Emp(n, d, p)"), emp_dictionary)
        assert ("n0", "d0") in rows
        assert len(rows) == 4

    def test_selection_restricts_answers(self, emp_dictionary):
        rows = possible_answer_tuples(q("V(n) :- Emp(n, 'd0', p)"), emp_dictionary)
        assert rows == [("n0",), ("n1",)]


class TestPositiveLeakage:
    def test_zero_leakage_for_secure_pair(self, binary_dictionary):
        secret = q("S(y) :- R(y, 'a')")
        view = q("V(x) :- R(x, 'b')")
        result = positive_leakage(secret, view, binary_dictionary)
        assert result.leakage == 0
        assert result.is_secure

    def test_positive_leakage_for_insecure_pair(self, binary_dictionary):
        secret = q("S(y) :- R(x, y)")
        view = q("V(x) :- R(x, y)")
        result = positive_leakage(secret, view, binary_dictionary)
        assert result.leakage > 0
        assert not result.is_secure
        assert result.worst_secret_rows is not None
        assert result.posterior > result.prior

    def test_collusion_increases_leakage(self, emp_dictionary):
        # Example 6.2 vs Example 6.3: the (name, department) view leaks more
        # than the department-only view, and colluding with the
        # (department, phone) view leaks even more.
        secret = q("S(n, p) :- Emp(n, d, p)")
        department_view = q("Vd(d) :- Emp(n, d, p)")
        name_department_view = q("Vnd(n, d) :- Emp(n, d, p)")
        department_phone_view = q("Vdp(d, p) :- Emp(n, d, p)")
        weak = positive_leakage(secret, department_view, emp_dictionary)
        stronger = positive_leakage(secret, name_department_view, emp_dictionary)
        collusion = positive_leakage(
            secret, [name_department_view, department_phone_view], emp_dictionary
        )
        assert weak.leakage < stronger.leakage < collusion.leakage

    def test_leakage_decreases_with_larger_expected_size(self, emp_schema):
        # Example 6.2's punchline: the disclosure is ~1/m where m is the
        # expected instance size, so denser databases leak relatively less.
        secret = q("S(n, p) :- Emp(n, d, p)")
        view = q("Vd(d) :- Emp(n, d, p)")
        sparse = Dictionary.uniform(emp_schema, Fraction(1, 8))
        dense = Dictionary.uniform(emp_schema, Fraction(1, 2))
        assert (
            positive_leakage(secret, view, dense).leakage
            < positive_leakage(secret, view, sparse).leakage
        )

    def test_larger_statements_can_be_explored(self, binary_dictionary):
        secret = q("S(y) :- R(x, y)")
        view = q("V(x) :- R(x, y)")
        single = positive_leakage(secret, view, binary_dictionary)
        wider = positive_leakage(
            secret, view, binary_dictionary, max_secret_rows=2, max_view_rows=2
        )
        assert wider.explored > single.explored
        assert wider.leakage >= single.leakage

    def test_requires_views(self, binary_dictionary):
        with pytest.raises(SecurityAnalysisError):
            positive_leakage(q("S(y) :- R(x, y)"), [], binary_dictionary)

    def test_one_search_function(self):
        # ``perfbench/layers.py`` traces the search as ``_positive_leakage``;
        # the public name is the same function, so each call is traced once.
        assert _positive_leakage is positive_leakage

    def test_each_statement_probability_is_computed_once(self, monkeypatch):
        # Table 1 row 2 on 12 facts, every probability positive: P[s] once
        # per secret statement, P[v̄] once per view statement that shares
        # a critical tuple with some secret statement, and P[s ∧ v̄] only
        # for such sharing pairs.  Theorem 4.5 proves every other pair
        # independent, so the search skips it.
        row = next(row for row in table1_pairs() if row.row == 2)
        schema = employee_schema(2, 2, 3)
        dictionary = Dictionary.uniform(schema, Fraction(1, 4))

        def crit(parts):
            return critical_tuples(
                conjoin_all([query.boolean_specialisation(r) for query, r in parts]), schema
            )

        secrets = [
            crit([(row.secret, answer)])
            for answer in possible_answer_tuples(row.secret, dictionary)
        ]
        view_statements = [
            crit(zip(row.views, answers))
            for answers in itertools.product(
                *(possible_answer_tuples(view, dictionary) for view in row.views)
            )
        ]
        sharing = [
            (i, j)
            for i, secret_crit in enumerate(secrets)
            for j, view_crit in enumerate(view_statements)
            if secret_crit & view_crit
        ]
        calls = []
        joint_probability = ProbabilityKernel.joint_probability

        def counted(kernel, *args, **options):
            calls.append(args)
            return joint_probability(kernel, *args, **options)

        monkeypatch.setattr(ProbabilityKernel, "joint_probability", counted)
        result = positive_leakage(row.secret, row.views, dictionary)
        assert result.explored == len(secrets) * len(view_statements)
        assert len(calls) == len(secrets) + len({j for _, j in sharing}) + len(sharing)
        assert len(calls) == 126

    @pytest.mark.parametrize("refused", range(20))
    def test_a_refused_critical_set_computes_its_pairs(self, refused):
        # crit_D refused (the max_valuations guard) for the ``refused``-th
        # of the 4 + 16 statements of row 2 on 8 facts: that statement's
        # pairs are computed, and the result is the unskipped search's,
        # which a provider refusing every statement gives.
        row = next(row for row in table1_pairs() if row.row == 2)
        dictionary = Dictionary.uniform(employee_schema(2, 2, 2), Fraction(1, 3))
        asked = []

        def refusing(query, schema, *args, **options):
            asked.append(query)
            if len(asked) == refused + 1:
                raise IntractableAnalysisError("refused")
            return critical_tuples(query, schema, *args, **options)

        def refusing_all(query, schema, *args, **options):
            raise IntractableAnalysisError("refused")

        unskipped = positive_leakage(
            row.secret, row.views, dictionary, critical_fn=refusing_all
        )
        result = positive_leakage(row.secret, row.views, dictionary, critical_fn=refusing)
        assert len(asked) > refused
        assert result == unskipped
        assert result.leakage > 0


class TestTheorem61:
    def test_epsilon_zero_for_secure_pair(self, binary_dictionary):
        secret = q("S(y) :- R(y, 'a')")
        view = q("V(x) :- R(x, 'b')")
        assert epsilon_of_theorem_6_1(secret, view, binary_dictionary) == 0

    def test_epsilon_uses_the_critical_tuples_of_the_conjunction(self):
        # v̄ ⊆ V̄(I) is T(y) ∧ R(a, a) ∧ T(a).  T(b) is critical for the
        # first view alone, not for the conjunction, so the secret T(b)
        # shares no critical tuple with the statement: ε is 0, not 1.
        schema = Schema(
            [RelationSchema("R", ("c1", "c2")), RelationSchema("T", ("c1",))],
            domain=Domain(["a", "b"]),
        )
        dictionary = Dictionary.uniform(schema, Fraction(1, 2))
        secret = q("S() :- T('b')")
        views = [q("V0() :- T(y), R('a', 'a')"), q("V1() :- T('a')")]
        assert positive_leakage(secret, views, dictionary).leakage == 0
        assert epsilon_of_theorem_6_1(secret, views, dictionary) == 0

    def test_epsilon_accepts_a_union_view(self, binary_dictionary):
        # Two rows of a union view conjoin disjunct by disjunct.
        secret = q("S(y) :- R(x, y)")
        view = union_of(q("V(x) :- R(x, 'a')"), q("V(x) :- R(x, 'b')"))
        assert epsilon_of_theorem_6_1(secret, view, binary_dictionary) == Fraction(4, 5)
        assert epsilon_of_theorem_6_1(secret, view, binary_dictionary, max_view_rows=2) == 1

    def test_bound_dominates_measured_leakage(self, emp_dictionary):
        secret = q("S(n, p) :- Emp(n, d, p)")
        view = q("Vd(d) :- Emp(n, d, p)")
        epsilon = epsilon_of_theorem_6_1(secret, view, emp_dictionary)
        assert 0 < epsilon < 1
        bound = leakage_bound_from_epsilon(epsilon)
        measured = positive_leakage(secret, view, emp_dictionary)
        assert float(measured.leakage) <= bound + 1e-9

    def test_epsilon_shrinks_with_database_size(self, emp_schema):
        # ε ≈ 1/m in Example 6.2: a larger expected size gives a smaller ε.
        secret = q("S(n, p) :- Emp(n, d, p)")
        view = q("Vd(d) :- Emp(n, d, p)")
        sparse = Dictionary.uniform(emp_schema, Fraction(1, 8))
        dense = Dictionary.uniform(emp_schema, Fraction(1, 2))
        assert epsilon_of_theorem_6_1(secret, view, dense) < epsilon_of_theorem_6_1(
            secret, view, sparse
        )

    def test_bound_requires_epsilon_below_one(self):
        with pytest.raises(SecurityAnalysisError):
            leakage_bound_from_epsilon(1.0)
        with pytest.raises(SecurityAnalysisError):
            leakage_bound_from_epsilon(-0.1)
        assert leakage_bound_from_epsilon(0.0) == 0.0
