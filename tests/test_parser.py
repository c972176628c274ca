"""Unit tests for the datalog query parser."""

import random
import sys
import threading

import pytest

from repro.core import practical_security_check
from repro.cq import Constant, Variable, evaluate, parse_atom, parse_query, parse_term, q
from repro.cq import canonical
from repro.cq.canonical import as_queries, as_query
from repro.exceptions import ParseError
from repro.relational import Fact, Instance


class TestTermParsing:
    def test_lowercase_identifier_is_variable(self):
        assert parse_term("x") == Variable("x")
        assert parse_term("name") == Variable("name")

    def test_uppercase_identifier_is_constant(self):
        assert parse_term("Mgmt") == Constant("Mgmt")

    def test_quoted_strings_are_constants(self):
        assert parse_term("'a'") == Constant("a")
        assert parse_term('"Jane Doe"') == Constant("Jane Doe")

    def test_numbers_are_constants(self):
        assert parse_term("42") == Constant(42)
        assert parse_term("-7") == Constant(-7)
        assert parse_term("3.5") == Constant(3.5)

    def test_multiple_terms_rejected(self):
        with pytest.raises(ParseError):
            parse_term("x y")


class TestAtomParsing:
    def test_simple_atom(self):
        atom = parse_atom("R(x, 'a', 3)")
        assert atom.relation == "R"
        assert atom.terms == (Variable("x"), Constant("a"), Constant(3))

    def test_anonymous_variables_are_distinct(self):
        atom = parse_atom("R(-, -)")
        assert atom.terms[0] != atom.terms[1]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("R(x) extra")


class TestQueryParsing:
    def test_paper_table1_view(self):
        query = parse_query("V2(n, d) :- Emp(n, d, p)")
        assert query.name == "V2"
        assert query.arity == 2
        assert query.body[0].relation == "Emp"

    def test_boolean_query(self):
        query = parse_query("S() :- R('a', x), R(x, x)")
        assert query.is_boolean
        assert len(query.body) == 2

    def test_comparisons(self):
        query = parse_query("Q(x) :- R1(x, 'a', y), R2(y, 'b', 'c'), x < y, y != 'c'")
        assert len(query.comparisons) == 2
        assert {c.op for c in query.comparisons} == {"<", "!="}

    def test_uppercase_constant_in_body(self):
        query = parse_query("V4(n) :- Emp(n, Mgmt, p)")
        assert Constant("Mgmt") in query.body[0].terms

    def test_q_alias(self):
        assert q("Q(x) :- R(x)").name == "Q"

    def test_missing_separator_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Q(x) R(x)")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Q(x :- R(x)")

    def test_invalid_character_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Q(x) :- R(x) @ S(x)")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Q(x) :- R(x) S(y)")

    def test_unsafe_head_variable_raises_query_error(self):
        # Parsed fine syntactically, but the query constructor rejects it.
        with pytest.raises(Exception):
            parse_query("Q(z) :- R(x, y)")

    def test_whitespace_is_flexible(self):
        query = parse_query("  Q ( x )   :-   R ( x ,  y ) ,  x != y  ")
        assert query.arity == 1

    def test_roundtrip_through_repr_mentions_subgoals(self):
        query = parse_query("Q(x) :- R(x, y), S(y)")
        assert "R" in repr(query) and "S" in repr(query)


def _anonymous_variable_beside_a_spelled_generated_name():
    # Spell the name a process-wide counter would hand the next anonymous
    # variable: it must not capture that variable.
    probe = parse_atom("R(-)").terms[0].name
    spelled = f"_{int(probe[1:]) + 1}"
    query = q(f"Q(x) :- R(x, -, {spelled})")
    return evaluate(query, Instance.of(Fact("R", ("a", "b", "c")))) == {("a",)}


def _reparsing_yields_an_equal_query():
    text = "Q(x) :- R(x, -, -), S(x, _)"
    return q(text) == q(text) and hash(q(text)) == hash(q(text))


def _practical_verdicts_repeat():
    secret, view = "S(n, p) :- Emp(n, d, p)", "V(n, d) :- Emp(n, d, p)"
    return practical_security_check(secret, view) == practical_security_check(secret, view)


class TestFreshNames:
    """Generated variable names depend only on the query, never on the process."""

    @pytest.mark.parametrize(
        "holds",
        [
            _anonymous_variable_beside_a_spelled_generated_name,
            _reparsing_yields_an_equal_query,
            _practical_verdicts_repeat,
        ],
        ids=["anonymous-beside-spelled-name", "reparse-is-equal", "practical-repeats"],
    )
    def test_generated_names_are_deterministic(self, holds):
        assert holds()


class TestParseOnce:
    """``as_query`` parses each datalog text once and shares the query."""

    def test_equal_texts_share_one_query(self):
        text = "Q(x) :- R(x, y), S(y, 'c')"
        query = as_query(text)
        assert as_query(text) is query
        assert as_query(query) is query
        assert query == parse_query(text)
        assert as_queries([text, text]) == [query, query]

    def test_a_malformed_text_raises_every_time_and_is_never_kept(self):
        text = "Q(x) :- R(x, y"
        for _ in range(3):
            with pytest.raises(ParseError):
                as_query(text)
        assert text not in canonical._parsed

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(canonical, "_PARSED_LIMIT", 4)
        texts = [f"Q{i}(x) :- R(x, 'c{i}')" for i in range(10)]
        for text in texts:
            as_query(text)
        assert len(canonical._parsed) <= 4
        assert list(canonical._parsed)[-1] == texts[-1]

    def test_concurrent_first_parses_agree_on_one_query(self):
        texts = [f"Q(x) :- R(x, y), T(y, 'k{i}')" for i in range(24)]
        for text in texts:
            canonical._parsed.pop(text, None)
        barrier = threading.Barrier(8)
        seen = [[] for _ in range(8)]
        errors = []

        def worker(slot):
            try:
                order = [text for text in texts for _ in range(3)]
                random.Random(slot).shuffle(order)
                barrier.wait(timeout=10)
                seen[slot].extend((text, as_query(text)) for text in order)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so first parses race
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        objects = {}
        for text, query in (pair for pairs in seen for pair in pairs):
            objects.setdefault(text, set()).add(id(query))
            assert query == parse_query(text)
        assert sorted(objects) == sorted(texts)
        assert all(len(ids) == 1 for ids in objects.values())
