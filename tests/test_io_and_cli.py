"""Unit tests for the JSON schema loader and the command-line interface."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.exceptions import SchemaError
from repro.io import (
    audit_configuration_to_dict,
    dictionary_from_dict,
    dictionary_to_dict,
    load_audit_configuration,
    load_publishing_plan,
    load_schema,
    publishing_plan_to_dict,
    save_audit_configuration,
    save_publishing_plan,
    save_schema,
    schema_from_dict,
    schema_to_dict,
    schema_to_json,
)
from repro.probability.dictionary import Dictionary
from repro.core.criticality import schema_fingerprint
from repro.session.plan import PublishingPlan

EMPLOYEE_DOCUMENT = {
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
    "tuple_probability": "1/4",
}


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(EMPLOYEE_DOCUMENT))
    return str(path)


class TestSchemaIO:
    def test_schema_from_dict(self):
        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        assert schema.relation("Emp").arity == 3
        assert len(schema.domain) == 6

    def test_explicit_global_domain(self):
        document = {
            "relations": [{"name": "R", "attributes": ["x", "y"]}],
            "domain": ["a", "b", "c"],
        }
        schema = schema_from_dict(document)
        assert list(schema.domain) == ["a", "b", "c"]

    def test_missing_relations_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"relations": []})

    def test_missing_attributes_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"relations": [{"name": "R"}]})

    def test_key_round_trip(self):
        document = {
            "relations": [
                {"name": "R", "attributes": ["k", "v"], "key": ["k"]}
            ],
            "domain": ["a"],
        }
        schema = schema_from_dict(document)
        assert schema.relation("R").key == ("k",)
        serialised = schema_to_dict(schema)
        assert serialised["relations"][0]["key"] == ["k"]
        assert schema_from_dict(serialised).relation("R").key == ("k",)

    def test_round_trip_preserves_attribute_domains(self):
        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        document = schema_to_dict(schema)
        rebuilt = schema_from_dict(document)
        assert set(rebuilt.domain) == set(schema.domain)
        assert rebuilt.relation("Emp").attribute_domains.keys() == {
            "name",
            "department",
            "phone",
        }

    def test_dictionary_from_dict_variants(self):
        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        dictionary = dictionary_from_dict(EMPLOYEE_DOCUMENT, schema)
        assert dictionary is not None
        assert dictionary.default == Fraction(1, 4)
        by_size = dictionary_from_dict(
            {"relations": EMPLOYEE_DOCUMENT["relations"], "expected_size": 2},
            schema,
        )
        assert by_size.expected_instance_size() == 2
        none = dictionary_from_dict({"relations": EMPLOYEE_DOCUMENT["relations"]}, schema)
        assert none is None

    def test_load_from_files(self, schema_file):
        schema = load_schema(schema_file)
        assert "Emp" in schema
        loaded_schema, dictionary = load_audit_configuration(schema_file)
        assert dictionary is not None
        assert loaded_schema.relation("Emp").arity == 3


# ---------------------------------------------------------------------------
# Saver counterparts: save → load → save identity
# ---------------------------------------------------------------------------
_domain_values = st.lists(
    st.sampled_from(["a", "b", "c", 0, 1, 2]), min_size=1, max_size=3, unique=True
)


@st.composite
def _schema_documents(draw):
    """Random loader-valid schema documents (every attribute has a domain)."""
    relation_count = draw(st.integers(min_value=1, max_value=3))
    relations = []
    for index in range(relation_count):
        arity = draw(st.integers(min_value=1, max_value=3))
        attributes = [f"a{i}" for i in range(arity)]
        spec = {
            "name": f"R{index}",
            "attributes": attributes,
            "attribute_domains": {
                attribute: draw(_domain_values) for attribute in attributes
            },
        }
        if draw(st.booleans()):
            spec["key"] = attributes[: draw(st.integers(min_value=1, max_value=arity))]
        relations.append(spec)
    return {"relations": relations}


class TestSaverRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(document=_schema_documents())
    def test_schema_load_save_load_identity(self, document):
        schema = schema_from_dict(document)
        serialised = schema_to_dict(schema)
        rebuilt = schema_from_dict(serialised)
        assert schema_fingerprint(rebuilt) == schema_fingerprint(schema)
        # to_dict is idempotent once normalised through a Schema
        assert schema_to_dict(rebuilt) == serialised

    @settings(max_examples=40, deadline=None)
    @given(
        document=_schema_documents(),
        numerator=st.integers(min_value=1, max_value=7),
        denominator=st.integers(min_value=8, max_value=64),
    )
    def test_dictionary_round_trip(self, document, numerator, denominator):
        schema = schema_from_dict(document)
        probability = Fraction(numerator, denominator)
        dictionary = Dictionary.uniform(schema, probability)
        serialised = dictionary_to_dict(dictionary)
        rebuilt = dictionary_from_dict(
            {**document, **serialised}, schema
        )
        assert rebuilt.default == probability

    def test_schema_file_round_trip(self, tmp_path):
        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        assert schema_fingerprint(load_schema(path)) == schema_fingerprint(schema)
        assert json.loads(schema_to_json(schema)) == schema_to_dict(schema)

    def test_audit_configuration_file_round_trip(self, tmp_path):
        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        dictionary = Dictionary.uniform(schema, Fraction(1, 3))
        path = tmp_path / "config.json"
        save_audit_configuration(schema, path, dictionary)
        loaded_schema, loaded_dictionary = load_audit_configuration(path)
        assert schema_fingerprint(loaded_schema) == schema_fingerprint(schema)
        assert loaded_dictionary.default == Fraction(1, 3)
        document = audit_configuration_to_dict(schema)
        assert "tuple_probability" not in document

    def test_publishing_plan_file_round_trip(self, tmp_path):
        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        plan = PublishingPlan(
            secrets={"pairs": "S(n, p) :- Emp(n, d, p)"},
            views={"bob": "V(n, d) :- Emp(n, d, p)", "carol": "W(d) :- Emp(n, d, p)"},
        )
        path = tmp_path / "plan.json"
        save_publishing_plan(plan, schema, path, Dictionary.uniform(schema, Fraction(1, 4)))
        loaded_schema, loaded_dictionary, loaded_plan = load_publishing_plan(path)
        assert schema_fingerprint(loaded_schema) == schema_fingerprint(schema)
        assert loaded_dictionary.default == Fraction(1, 4)
        assert loaded_plan.secret_names == plan.secret_names
        assert loaded_plan.recipients == plan.recipients

    def test_plan_with_query_objects_serialises_to_strings(self):
        from repro import q

        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        plan = PublishingPlan(
            secrets={"s": q("S(n) :- Emp(n, HR, p)")},
            views={"bob": q("V(n) :- Emp(n, Mgmt, p)")},
        )
        document = publishing_plan_to_dict(plan, schema)
        # rendered strings parse back to the original queries
        assert q(document["secrets"]["s"]) == q("S(n) :- Emp(n, HR, p)")
        assert q(document["views"]["bob"]) == q("V(n) :- Emp(n, Mgmt, p)")

    def test_non_uniform_dictionary_is_rejected(self):
        schema = schema_from_dict(EMPLOYEE_DOCUMENT)
        dictionary = Dictionary.uniform(schema, Fraction(1, 4))
        fact = dictionary.tuple_space()[0]
        skewed = dictionary.with_probability(fact, Fraction(1, 2))
        assert not skewed.is_uniform
        with pytest.raises(SchemaError):
            dictionary_to_dict(skewed)
        # an explicit override equal to the default is still uniform
        still_uniform = dictionary.with_probability(fact, Fraction(1, 4))
        assert dictionary_to_dict(still_uniform) == {"tuple_probability": "1/4"}


class TestCLI:
    def test_decide_secure_pair_exits_zero(self, schema_file, capsys):
        code = main(
            [
                "decide",
                "--schema", schema_file,
                "--secret", "S(n) :- Emp(n, HR, p)",
                "--view", "V(n) :- Emp(n, Mgmt, p)",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "secure" in output

    def test_decide_insecure_pair_exits_one(self, schema_file, capsys):
        code = main(
            [
                "decide",
                "--schema", schema_file,
                "--secret", "S(n, p) :- Emp(n, d, p)",
                "--view", "V(n, d) :- Emp(n, d, p)",
            ]
        )
        assert code == 1
        assert "NOT secure" in capsys.readouterr().out

    def test_quick_check_command(self, schema_file, capsys):
        code = main(
            [
                "quick",
                "--schema", schema_file,
                "--secret", "S(n) :- Emp(n, HR, p)",
                "--view", "V(n) :- Emp(n, Mgmt, p)",
            ]
        )
        assert code == 0
        assert "secure" in capsys.readouterr().out

    def test_audit_command_with_named_views(self, schema_file, capsys):
        code = main(
            [
                "audit",
                "--schema", schema_file,
                "--secret", "S(n, p) :- Emp(n, d, p)",
                "--view", "bob=V(n, d) :- Emp(n, d, p)",
                "--view", "carol=W(d, p) :- Emp(n, d, p)",
            ]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "partial" in output
        assert "bob" in output

    def test_leakage_command(self, schema_file, capsys):
        code = main(
            [
                "leakage",
                "--schema", schema_file,
                "--secret", "S(p) :- Emp(n, d, p)",
                "--view", "V(n) :- Emp(n, d, p)",
                "--probability", "1/4",
            ]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "leak(S, V̄)" in output

    def test_collusion_command(self, schema_file, capsys):
        code = main(
            [
                "collusion",
                "--schema", schema_file,
                "--secret", "S(n) :- Emp(n, HR, p)",
                "--view", "bob=V(n) :- Emp(n, Mgmt, p)",
                "--view", "carol=W(n) :- Emp(n, Mgmt, p)",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "learns nothing" in output

    def test_parse_error_reports_and_exits_two(self, schema_file, capsys):
        code = main(
            [
                "decide",
                "--schema", schema_file,
                "--secret", "not a query",
                "--view", "V(n) :- Emp(n, Mgmt, p)",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_view_argument_is_an_argparse_error(self, schema_file):
        with pytest.raises(SystemExit):
            main(["decide", "--schema", schema_file, "--secret", "S(n) :- Emp(n, HR, p)"])


class TestParseViews:
    """Regression tests for ``_parse_views`` recipient detection."""

    def test_named_and_unnamed_views(self):
        from repro.cli import _parse_views

        views = _parse_views(
            ["bob=V(n) :- Emp(n, Mgmt, p)", "W(d) :- Emp(n, d, p)"]
        )
        assert views == {
            "bob": "V(n) :- Emp(n, Mgmt, p)",
            "user2": "W(d) :- Emp(n, d, p)",
        }

    def test_equals_in_head_constant_is_not_a_recipient(self):
        # A '=' inside a quoted head constant used to tear the query apart
        # at the wrong place; only a bare name left of ':-' is a recipient.
        from repro.cli import _parse_views

        views = _parse_views(["V('a=b', x) :- R(x, y)"])
        assert views == {"user1": "V('a=b', x) :- R(x, y)"}

    def test_recipient_with_comparison_in_body(self):
        from repro.cli import _parse_views

        views = _parse_views(["carol=W(d, p) :- Emp(n, d, p), d = 'HR'"])
        assert views == {"carol": "W(d, p) :- Emp(n, d, p), d = 'HR'"}

    def test_unnamed_view_with_comparison_in_body(self):
        from repro.cli import _parse_views

        views = _parse_views(["W(d, p) :- Emp(n, d, p), d = 'HR'"])
        assert views == {"user1": "W(d, p) :- Emp(n, d, p), d = 'HR'"}

    def test_named_view_with_equals_constant_in_head(self):
        from repro.cli import _parse_views

        views = _parse_views(["bob=V('x=y') :- R(a, b)"])
        assert views == {"bob": "V('x=y') :- R(a, b)"}


PLAN_DOCUMENT = {
    **EMPLOYEE_DOCUMENT,
    "secrets": {"hr_names": "S(n) :- Emp(n, HR, p)"},
    "views": {
        "bob": "V(n) :- Emp(n, Mgmt, p)",
        "carol": "W(d) :- Emp(n, d, p)",
    },
}


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(PLAN_DOCUMENT))
    return str(path)


class TestPublishingPlanIO:
    def test_load_publishing_plan(self, plan_file):
        from repro.io import load_publishing_plan

        schema, dictionary, plan = load_publishing_plan(plan_file)
        assert "Emp" in schema
        assert dictionary is not None
        assert plan.secret_names == ("hr_names",)
        assert plan.recipients == ("bob", "carol")

    def test_plan_document_requires_secrets_and_views(self):
        from repro.io import publishing_plan_from_dict

        with pytest.raises(SchemaError):
            publishing_plan_from_dict({**EMPLOYEE_DOCUMENT, "views": {"b": "V(x) :- Emp(x, d, p)"}})
        with pytest.raises(SchemaError):
            publishing_plan_from_dict({**EMPLOYEE_DOCUMENT, "secrets": {"s": "S(x) :- Emp(x, d, p)"}})


class TestPlanCommand:
    def test_plan_with_disclosure_exits_one(self, plan_file, capsys):
        code = main(["plan", "--plan", plan_file])
        output = capsys.readouterr().out
        assert code == 1
        assert "NOT secure" in output
        assert "carol" in output

    def test_safe_plan_exits_zero(self, tmp_path, capsys):
        document = {
            **EMPLOYEE_DOCUMENT,
            "secrets": {"hr_names": "S(n) :- Emp(n, HR, p)"},
            "views": {"bob": "V(n) :- Emp(n, Mgmt, p)"},
        }
        path = tmp_path / "safe_plan.json"
        path.write_text(json.dumps(document))
        code = main(["plan", "--plan", str(path), "--show-cache-stats"])
        output = capsys.readouterr().out
        assert code == 0
        assert "secure against every coalition" in output
        assert "cache:" in output

    def test_plan_with_unknown_engine_exits_two(self, plan_file, capsys):
        code = main(["plan", "--plan", plan_file, "--engine", "quantum"])
        assert code == 2
        assert "available engines" in capsys.readouterr().err

    def test_missing_plan_file_exits_two(self, capsys):
        code = main(["plan", "--plan", "/nonexistent/plan.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The service-facing CLI: audit --json, request, serve
# ---------------------------------------------------------------------------
class TestAuditJson:
    def test_audit_json_includes_observability(self, schema_file, capsys):
        code = main(
            [
                "audit",
                "--schema", schema_file,
                "--secret", "S(n, p) :- Emp(n, d, p)",
                "--view", "bob=V(n, d) :- Emp(n, d, p)",
                "--json",
            ]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["all_secure"] is False
        assert document["findings"][0]["disclosure"] == "partial"
        observability = document["observability"]
        assert observability["critical_tuple_cache"]["misses"] > 0
        assert observability["engines"] == {"verification": "exact"}
        # the audit measured leakage, so the kernel counters must surface
        assert "probability_kernels" in observability
        assert "exact" in observability["probability_kernels"]


class TestRequestCLI:
    @pytest.fixture()
    def running_server(self):
        from repro.service import ServerThread

        with ServerThread(workers=2) as server:
            yield server

    def test_request_ping(self, running_server, capsys):
        host, port = running_server.address
        code = main(["request", "--host", host, "--port", str(port), "--op", "ping"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["result"]["pong"] is True

    def test_request_decide_disclosure_exits_one(
        self, running_server, schema_file, capsys
    ):
        host, port = running_server.address
        code = main(
            [
                "request",
                "--host", host,
                "--port", str(port),
                "--op", "decide",
                "--schema", schema_file,
                "--secret", "S(n, p) :- Emp(n, d, p)",
                "--view", "bob=V(n, d) :- Emp(n, d, p)",
            ]
        )
        assert code == 1
        response = json.loads(capsys.readouterr().out)
        assert response["result"]["verdict"] is False

    def test_request_payload_file(self, running_server, tmp_path, capsys):
        host, port = running_server.address
        payload = tmp_path / "request.json"
        payload.write_text(
            json.dumps(
                {
                    "op": "decide",
                    "schema": EMPLOYEE_DOCUMENT,
                    "secret": "S(n) :- Emp(n, HR, p)",
                    "views": ["V(n) :- Emp(n, Mgmt, p)"],
                }
            )
        )
        code = main(
            ["request", "--host", host, "--port", str(port), "--payload", str(payload)]
        )
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["result"]["verdict"] is True

    def test_request_protocol_error_exits_two(self, running_server, capsys):
        host, port = running_server.address
        code = main(
            ["request", "--host", host, "--port", str(port), "--op", "decide"]
        )
        assert code == 2
        response = json.loads(capsys.readouterr().out)
        assert response["error"]["code"] == "invalid-request"

    def test_request_unreachable_daemon_exits_two(self, capsys):
        code = main(
            ["request", "--host", "127.0.0.1", "--port", "1", "--op", "ping"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_request_without_op_is_an_argparse_error(self, running_server):
        host, port = running_server.address
        with pytest.raises(SystemExit):
            main(["request", "--host", host, "--port", str(port)])

    def test_request_audit_disclosure_exits_one(
        self, running_server, schema_file, capsys
    ):
        # Exit codes must mirror the local `audit` command (CI gates key
        # on them): a disclosed secret exits 1, not 0.
        host, port = running_server.address
        code = main(
            [
                "request",
                "--host", host,
                "--port", str(port),
                "--op", "audit",
                "--schema", schema_file,
                "--secret", "S(n, p) :- Emp(n, d, p)",
                "--view", "bob=V(n, d) :- Emp(n, d, p)",
            ]
        )
        assert code == 1
        response = json.loads(capsys.readouterr().out)
        assert response["result"]["all_secure"] is False

    def test_trace_prints_the_waterfall(self, running_server, schema_file, capsys):
        host, port = running_server.address
        code = main(
            [
                "trace",
                "--host", host,
                "--port", str(port),
                "--op", "decide",
                "--schema", schema_file,
                "--secret", "S(n) :- Emp(n, HR, p)",
                "--view", "bob=V(n) :- Emp(n, Mgmt, p)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        for layer in ("server.handle", "server.execute", "session.decide"):
            assert layer in out
        assert out.rstrip().endswith("verdict: True")

    def test_request_and_trace_share_their_flags(self):
        from repro.cli import build_parser

        shared = [
            "--host", "10.0.0.1",
            "--port", "9999",
            "--payload", "request.json",
            "--op", "leakage",
            "--schema", "schema.json",
            "--secret", "S(n) :- Emp(n, d, p)",
            "--view", "bob=V(n) :- Emp(n, d, p)",
            "--view", "W(d) :- Emp(n, d, p)",
            "--probability", "1/4",
            "--engine", "sampling",
            "--deadline-ms", "250",
            "--retries", "3",
        ]
        parser = build_parser()
        names = (
            "host", "port", "payload", "op", "schema", "secret", "view",
            "probability", "engine", "deadline_ms", "retries",
        )
        for argv in (shared, []):
            request = vars(parser.parse_args(["request", *argv]))
            trace = vars(parser.parse_args(["trace", *argv]))
            assert {n: request[n] for n in names} == {n: trace[n] for n in names}
        assert request["port"] == 8765 and request["host"] == "127.0.0.1"

    def test_request_quick_inconclusive_exits_one(
        self, running_server, schema_file, capsys
    ):
        # Mirror the local `quick` command: only "certainly secure" is 0.
        host, port = running_server.address
        code = main(
            [
                "request",
                "--host", host,
                "--port", str(port),
                "--op", "quick",
                "--schema", schema_file,
                "--secret", "S(n, p) :- Emp(n, d, p)",
                "--view", "V(n, d) :- Emp(n, d, p)",
            ]
        )
        assert code == 1
        response = json.loads(capsys.readouterr().out)
        assert response["result"]["verdict"] is None
