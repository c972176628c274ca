"""Unit tests for facts, the tuple space and instances."""

import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from repro.bench import employee_schema
from repro.core.encrypted import (
    EncryptedView,
    EncryptedViewAnswerIs,
    answerable_from_encrypted_view,
)
from repro.core.prior import KeyConstraintKnowledge
from repro.cq import q
from repro.cq.witness import query_support
from repro.exceptions import IntractableAnalysisError, SchemaError
from repro.probability import Dictionary
from repro.relational import (
    Domain,
    Fact,
    Instance,
    RelationSchema,
    Schema,
    enumerate_instances,
    instance_space_size,
    satisfies_key_constraints,
    tuple_space,
    tuple_space_size,
)
from repro.relational import tuples as tuples_module
from repro.relational.tuples import (
    _tuple_space_set,
    facts_of_relation,
    relation_slice,
    validate_fact,
)


@pytest.fixture
def small_schema() -> Schema:
    return Schema(
        [RelationSchema("R", ("x", "y")), RelationSchema("S", ("z",))],
        domain=Domain.of("a", "b"),
    )


class TestRelationSlices:
    """Each relation's slice of ``tup(D)`` is built once per (schema, domain)."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        counts = Counter()
        build = tuples_module.facts_of_relation

        def counted(relation, domain):
            counts[relation.name, domain.values] += 1
            return build(relation, domain)

        monkeypatch.setattr(tuples_module, "facts_of_relation", counted)
        return counts

    def test_query_supports_enumerate_each_relation_once(self, small_schema, enumerations):
        query = q("Q(x) :- R(x, y), S(y)")
        supports = {query_support(query, small_schema) for _ in range(100)}
        values = small_schema.domain.values
        assert enumerations == {("R", values): 1, ("S", values): 1}
        assert supports == {frozenset(tuple_space(small_schema))}

    def test_a_second_domain_gets_its_own_slices(self, small_schema, enumerations):
        ab, abc = small_schema.domain, Domain.of("a", "b", "c")
        narrow = relation_slice(small_schema, "R")
        wide = relation_slice(small_schema, "R", abc)
        assert relation_slice(small_schema, "R", ab) is narrow
        assert relation_slice(small_schema, "R", Domain.of("a", "b", "c")) is wide
        assert _tuple_space_set(small_schema, abc) >= wide
        assert enumerations == {("R", ab.values): 1, ("R", abc.values): 1, ("S", abc.values): 1}
        assert len(narrow) == 4 and len(wide) == 9 and narrow < wide
        assert wide == frozenset(tuple_space(small_schema, abc)[:9])

    def test_knowledge_and_encrypted_views_read_the_slices(self, enumerations):
        schema = employee_schema()
        emp = relation_slice(schema, "Emp")
        assert KeyConstraintKnowledge({"Emp": (0,)}).event(schema).support(schema) == emp
        assert EncryptedViewAnswerIs(EncryptedView("Emp"), frozenset()).support(schema) is emp
        assert query_support(q("S(n) :- Emp(n, d, p)"), schema) == emp
        binary = Schema([RelationSchema("R", ("x", "y"))], domain=Domain.of("a", "b"))
        dictionary = Dictionary.uniform(binary, Fraction(1, 2))
        assert answerable_from_encrypted_view(q("Q() :- R(x, x)"), EncryptedView("R"), dictionary)
        assert sum(enumerations.values()) == 2

    def test_first_uses_from_eight_threads_agree_on_one_set(self):
        schema = Schema(
            [RelationSchema("R", ("x", "y", "z")), RelationSchema("S", ("x",))],
            domain=Domain.of("a", "b", "c", "d", "e", "f"),
        )
        barrier = threading.Barrier(8)
        seen = [None] * 8
        errors = []

        def worker(slot):
            try:
                barrier.wait(timeout=60)
                seen[slot] = (
                    relation_slice(schema, "R"),
                    relation_slice(schema, "S"),
                    _tuple_space_set(schema, schema.domain),
                )
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so first builds race
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert all(all(a is b for a, b in zip(sets, seen[0])) for sets in seen)
        fresh = tuple_space(schema)
        r_slice, s_slice, space = seen[0]
        assert r_slice == frozenset(fact for fact in fresh if fact.relation == "R")
        assert s_slice == frozenset(fact for fact in fresh if fact.relation == "S")
        assert space == frozenset(fresh) and len(space) == 6**3 + 6


class TestFact:
    def test_equality_and_hash(self):
        assert Fact("R", ("a", "b")) == Fact("R", ["a", "b"])
        assert hash(Fact("R", ("a",))) == hash(Fact("R", ("a",)))

    def test_ordering_is_deterministic(self):
        facts = [Fact("R", ("b", "a")), Fact("R", ("a", "b")), Fact("Q", ("z",))]
        assert sorted(facts)[0].relation == "Q"

    def test_project_and_replace(self):
        fact = Fact("R", ("a", "b", "c"))
        assert fact.project((2, 0)) == ("c", "a")
        assert fact.replace(1, "z") == Fact("R", ("a", "z", "c"))
        assert fact[0] == "a"
        assert fact.arity == 3

    def test_validate_fact_checks_arity(self, small_schema):
        validate_fact(small_schema, Fact("R", ("a", "b")))
        with pytest.raises(SchemaError):
            validate_fact(small_schema, Fact("R", ("a",)))


class TestTupleSpace:
    def test_size_matches_enumeration(self, small_schema):
        facts = tuple_space(small_schema)
        assert len(facts) == tuple_space_size(small_schema) == 4 + 2

    def test_respects_attribute_domains(self):
        relation = RelationSchema(
            "R", ("x", "y"), {"x": Domain.of("a"), "y": Domain.of(1, 2)}
        )
        schema = Schema([relation])
        facts = tuple_space(schema)
        assert set(facts) == {Fact("R", ("a", 1)), Fact("R", ("a", 2))}

    def test_facts_of_relation_orders_deterministically(self, small_schema):
        facts = list(facts_of_relation(small_schema.relation("R"), small_schema.domain))
        assert facts[0] == Fact("R", ("a", "a"))
        assert len(facts) == 4

    def test_domain_override(self, small_schema):
        facts = tuple_space(small_schema, Domain.of("z"))
        assert set(facts) == {Fact("R", ("z", "z")), Fact("S", ("z",))}


class TestInstance:
    def test_set_semantics(self):
        instance = Instance.of(Fact("R", ("a",)), Fact("R", ("a",)))
        assert len(instance) == 1

    def test_add_remove_are_persistent(self):
        base = Instance.empty()
        extended = base.add(Fact("R", ("a",)))
        assert len(base) == 0
        assert len(extended) == 1
        assert len(extended.remove(Fact("R", ("a",)))) == 0

    def test_remove_missing_fact_is_noop(self):
        instance = Instance.of(Fact("R", ("a",)))
        assert instance.remove(Fact("R", ("b",))) == instance

    def test_relation_slicing(self):
        instance = Instance.of(Fact("R", ("a",)), Fact("S", ("b",)))
        assert instance.relation("R") == frozenset({Fact("R", ("a",))})

    def test_set_operations(self):
        left = Instance.of(Fact("R", ("a",)), Fact("R", ("b",)))
        right = Instance.of(Fact("R", ("b",)), Fact("R", ("c",)))
        assert len(left.union(right)) == 3
        assert left.intersection(right) == Instance.of(Fact("R", ("b",)))
        assert left.difference(right) == Instance.of(Fact("R", ("a",)))

    def test_subset_comparison_and_hash(self):
        small = Instance.of(Fact("R", ("a",)))
        big = small.add(Fact("R", ("b",)))
        assert small <= big
        assert hash(small) == hash(Instance.of(Fact("R", ("a",))))


class TestInstanceEnumeration:
    def test_counts_match_powerset(self, small_schema):
        instances = list(enumerate_instances(small_schema))
        assert len(instances) == 2 ** tuple_space_size(small_schema)
        assert instance_space_size(small_schema) == len(instances)

    def test_enumeration_over_explicit_facts(self, small_schema):
        facts = [Fact("S", ("a",)), Fact("S", ("b",))]
        instances = list(enumerate_instances(small_schema, over_facts=facts))
        assert len(instances) == 4

    def test_guard_against_blowup(self, small_schema):
        with pytest.raises(IntractableAnalysisError):
            list(enumerate_instances(small_schema, max_tuples=3))


class TestKeyConstraints:
    def test_satisfied_and_violated(self):
        schema = Schema(
            [RelationSchema("R", ("k", "v"), key=("k",))], domain=Domain.of("a", "b")
        )
        good = Instance.of(Fact("R", ("a", "a")), Fact("R", ("b", "a")))
        bad = Instance.of(Fact("R", ("a", "a")), Fact("R", ("a", "b")))
        assert satisfies_key_constraints(schema, good)
        assert not satisfies_key_constraints(schema, bad)

    def test_relations_without_keys_are_ignored(self):
        schema = Schema([RelationSchema("R", ("k", "v"))], domain=Domain.of("a"))
        instance = Instance.of(Fact("R", ("a", "a")))
        assert satisfies_key_constraints(schema, instance)
