"""The sqlite3-backed fact store: round-trips, typing, loading, CLI.

The store must behave as a *set of facts* indistinguishable from an
in-memory :class:`Instance` — same membership, same counts, same values
back out (no affinity coercion) — while adding what instances lack:
file persistence, bulk loading and SQL execution for the sql engine.
"""

import json
import pickle
import sqlite3

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ReproError
from repro.relational import Fact, Instance
from repro.storage import FactStore, SQLiteFactStore
from repro.workload import InstanceSpec, generate_facts, generate_instance


class TestFactStoreProtocol:
    def test_instance_is_a_fact_store(self):
        assert isinstance(Instance.empty(), FactStore)
        assert isinstance(SQLiteFactStore(), FactStore)

    def test_to_instance_round_trip(self):
        facts = {Fact("R", (1, "a")), Fact("S", (2.5,)), Fact("R", (0, 0))}
        store = SQLiteFactStore.mirror(facts)
        assert store.to_instance() == Instance(facts)


class TestRoundTrip:
    def test_membership_len_iter(self):
        facts = [Fact("R", (1, 2)), Fact("R", (1, "a")), Fact("T", ())]
        store = SQLiteFactStore.mirror(facts)
        assert len(store) == 3
        assert set(store) == set(facts)
        assert Fact("R", (1, 2)) in store
        assert Fact("R", (2, 1)) not in store
        assert Fact("T", ()) in store
        assert "not a fact" not in store

    def test_values_keep_their_python_types(self):
        # The three affinity hazards: ints through TEXT, numeric strings
        # through INTEGER, ints through REAL.  A store must return
        # exactly what was put in.
        facts = [
            Fact("R", (1, "1")),
            Fact("R", (2, "x")),
            Fact("S", (1.5, 2)),
            Fact("S", (3.0, 4)),
        ]
        store = SQLiteFactStore.mirror(facts)
        values = {value for fact in store for value in fact.values}
        assert values == {1, "1", 2, "x", 1.5, 3.0, 4}
        assert {type(v) for v in values} == {int, str, float}

    def test_duplicates_collapse(self):
        store = SQLiteFactStore.mirror([Fact("R", (1,))] * 5)
        store.add(Fact("R", (1,)))
        assert len(store) == 1

    def test_mixed_arity_relation(self):
        store = SQLiteFactStore.mirror([Fact("R", (1,)), Fact("R", (1, 2))])
        assert len(store) == 2
        assert set(store.relation("R")) == {Fact("R", (1,)), Fact("R", (1, 2))}
        assert store.table("R", 1) != store.table("R", 2)
        assert store.table("R", 3) is None

    def test_bool_is_stored_as_int(self):
        # Fact("R", (True,)) == Fact("R", (1,)) already holds in memory;
        # the store keeps that equivalence.
        store = SQLiteFactStore.mirror([Fact("R", (True,))])
        assert Fact("R", (1,)) in store
        assert set(store) == {Fact("R", (1,))}

    def test_unstorable_values_are_rejected(self):
        store = SQLiteFactStore()
        with pytest.raises(ReproError, match="cannot be stored"):
            store.add(Fact("R", (None,)))
        with pytest.raises(ReproError):
            store.add(Fact("R", ((1, 2),)))
        # The failed load rolled back: nothing half-written.
        assert len(store) == 0
        assert Fact("R", (None,)) not in store


class TestNoAffinity:
    def test_columns_carry_no_declared_type(self):
        # NONE affinity is a correctness requirement: any declared type
        # makes SQLite coerce comparison operands (1 would match "1").
        store = SQLiteFactStore.mirror([Fact("R", (1, "a")), Fact("R", (2, "b"))])
        table = store.table("R", 2)
        (sql,) = [
            row[0]
            for row in store.execute(
                "SELECT sql FROM sqlite_master WHERE type = 'table' AND name = ?",
                (table,),
            )
        ]
        for affinity in ("INTEGER", "TEXT", "REAL", "NUMERIC", "BLOB"):
            assert affinity not in sql.upper()

    def test_int_and_numeric_string_never_compare_equal(self):
        # The membership probe over an all-int column must not match a
        # numeric-looking string, and vice versa.
        store = SQLiteFactStore.mirror([Fact("R", (1,)), Fact("R", (2,))])
        assert Fact("R", (1,)) in store
        assert Fact("R", ("1",)) not in store
        text = SQLiteFactStore.mirror([Fact("S", ("1",)), Fact("S", ("2",))])
        assert Fact("S", ("1",)) in text
        assert Fact("S", (1,)) not in text

    def test_int_and_numeric_string_coexist_as_distinct_facts(self):
        store = SQLiteFactStore.mirror([Fact("R", (1,))])
        store.add(Fact("R", ("1",)))
        assert set(store) == {Fact("R", (1,)), Fact("R", ("1",))}
        assert Fact("R", (1,)) in store and Fact("R", ("1",)) in store

    def test_int_float_equality_stays_numeric(self):
        # 1 == 1.0 in Python, so the store's UNIQUE constraint and
        # membership must treat them as one fact.
        store = SQLiteFactStore.mirror([Fact("R", (1,))])
        assert Fact("R", (1.0,)) in store
        store.add(Fact("R", (1.0,)))
        assert len(store) == 1


class TestPersistence:
    def test_reopen_restores_layout_and_facts(self, tmp_path):
        path = tmp_path / "facts.db"
        facts = {Fact("R", (1, "a")), Fact("R", (1, 2)), Fact("T", ())}
        with SQLiteFactStore(path) as store:
            store.load_facts(facts)
        with SQLiteFactStore(path) as reopened:
            assert set(reopened) == facts
            assert reopened.table("R", 2) is not None
            assert reopened.relations() == [("R", 2, 2), ("T", 0, 1)]
            reopened.add(Fact("S", (5,)))
            assert len(reopened) == 4

    def test_reopen_rejects_crafted_catalog_table_names(self, tmp_path):
        # Catalog names are interpolated into SQL text, so a store file
        # whose catalog was tampered with must not open at all.
        path = tmp_path / "evil.db"
        with SQLiteFactStore(path) as store:
            store.add(Fact("R", (1,)))
        connection = sqlite3.connect(str(path))
        connection.execute(
            "UPDATE repro_meta SET table_name = 'f0 WHERE 0; DROP TABLE f0; --'"
        )
        connection.commit()
        connection.close()
        with pytest.raises(ReproError, match="catalog table name"):
            SQLiteFactStore(path)

    def test_closed_store_raises(self, tmp_path):
        store = SQLiteFactStore(tmp_path / "facts.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            store.execute("SELECT 1")


class TestIndexes:
    def test_ensure_index_is_covering_and_idempotent(self):
        store = SQLiteFactStore.mirror([Fact("R", (1, 2, 3))])
        assert store.ensure_index("R", 3, [1]) is True
        assert store.ensure_index("R", 3, [1]) is False  # cached
        table = store.table("R", 3)
        (sql,) = [
            row[0]
            for row in store.execute(
                "SELECT sql FROM sqlite_master WHERE type = 'index' AND name = ?",
                (f"ix_{table}_1",),
            )
        ]
        # Leads with the probe position, appends the rest of the cover.
        assert "(c1, c0, c2)" in sql

    def test_ensure_index_rejects_bad_requests(self):
        store = SQLiteFactStore.mirror([Fact("R", (1, 2))])
        assert store.ensure_index("R", 2, []) is False
        assert store.ensure_index("R", 2, [7]) is False
        assert store.ensure_index("Missing", 2, [0]) is False

    def test_indexes_survive_mixed_type_inserts(self):
        # Columns are untyped, so a batch of new-typed values never
        # rebuilds the table (or its indexes).
        store = SQLiteFactStore.mirror([Fact("R", (1,))])
        assert store.ensure_index("R", 1, [0]) is True
        store.add(Fact("R", ("a",)))
        assert store.ensure_index("R", 1, [0]) is False  # still there
        assert set(store) == {Fact("R", (1,)), Fact("R", ("a",))}


class TestLoading:
    def test_load_json_list_shape(self, tmp_path):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps([["Emp", "alice", 100], ["Dept", "HR"]]))
        store = SQLiteFactStore()
        assert store.load_json(path) == 2
        assert set(store) == {Fact("Emp", ("alice", 100)), Fact("Dept", ("HR",))}

    def test_load_json_mapping_shape_with_facts_key(self, tmp_path):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"facts": {"Emp": [["alice", 100], ["bob", 101]]}}))
        store = SQLiteFactStore()
        assert store.load_json(path) == 2
        assert Fact("Emp", ("bob", 101)) in store

    def test_load_json_rejects_malformed_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([["Emp", 1], [2, 3]]))
        with pytest.raises(ReproError, match="relation"):
            SQLiteFactStore().load_json(path)
        path.write_text(json.dumps(42))
        with pytest.raises(ReproError, match="not a fact file"):
            SQLiteFactStore().load_json(path)

    def test_load_csv_coerces_numeric_cells(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("alice,100,2.5\nbob,101,3.5\n")
        store = SQLiteFactStore()
        assert store.load_csv(path, "Emp") == 2
        assert Fact("Emp", ("alice", 100, 2.5)) in store
        plain = SQLiteFactStore()
        plain.load_csv(path, "Emp", coerce=False)
        assert Fact("Emp", ("alice", "100", "2.5")) in plain

    def test_cli_load_subcommand(self, tmp_path, capsys):
        facts = tmp_path / "facts.json"
        facts.write_text(json.dumps({"Emp": [["alice", "HR"], ["bob", "Eng"]]}))
        rows = tmp_path / "extra.csv"
        rows.write_text("carol,Sales\n")
        db = tmp_path / "store.db"
        code = cli_main(
            ["load", "--store", str(db), str(facts), "--csv", f"Emp={rows}"]
        )
        assert code == 0
        assert "3 facts total" in capsys.readouterr().out
        with SQLiteFactStore(db) as store:
            assert len(store) == 3

    def test_cli_load_requires_a_source(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["load", "--store", str(tmp_path / "s.db")])

    def test_cli_load_missing_file_exits_2(self, tmp_path):
        code = cli_main(["load", "--store", str(tmp_path / "s.db"), "absent.json"])
        assert code == 2


class TestInstancePickling:
    def test_instance_pickles_without_its_sqlite_mirror(self):
        # The pruned-parallel criticality engine ships instances to
        # process-pool workers; only the facts ride along — an instance
        # holds no sqlite connection, and its hash indexes are rebuilt
        # on demand.
        from repro.cq import evaluate, q

        instance = Instance.of(Fact("R", (1, 2)))
        evaluate(q("Q(x) :- R(x, 1)"), instance)  # builds an index
        assert instance._indexes
        assert not hasattr(instance, "_sqlite_mirror")
        assert instance.__getstate__() == instance.facts
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance
        assert not clone._indexes


class TestLargeInstanceGenerator:
    def test_deterministic_and_sized(self):
        spec = InstanceSpec(seed=7, facts=500, domain_size=50)
        first = list(generate_facts(spec))
        second = list(generate_facts(spec))
        assert first == second
        assert len(first) == 500
        assert {f.relation for f in first} <= set(spec.relations)
        for fact in first:
            assert len(fact.values) == spec.relations[fact.relation]
            assert all(0 <= v < 50 for v in fact.values)

    def test_skew_concentrates_values(self):
        flat = InstanceSpec(seed=1, facts=4000, domain_size=100, skew=0.0)
        skewed = InstanceSpec(seed=1, facts=4000, domain_size=100, skew=3.0)

        def low_fraction(spec):
            values = [v for f in generate_facts(spec) for v in f.values]
            return sum(1 for v in values if v < 10) / len(values)

        assert low_fraction(skewed) > low_fraction(flat) + 0.3

    def test_relation_weights_bias_the_draw(self):
        spec = InstanceSpec(
            seed=2, facts=2000, relation_weights={"R": 10.0, "S": 0.0, "T": 0.0}
        )
        assert {f.relation for f in generate_facts(spec)} == {"R"}

    def test_generate_instance_has_set_semantics(self):
        spec = InstanceSpec(seed=3, facts=2000, domain_size=3)
        instance = generate_instance(spec)
        assert isinstance(instance, Instance)
        assert len(instance) < 2000  # tiny domain forces collisions

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ReproError):
            list(generate_facts(InstanceSpec(facts=-1)))
        with pytest.raises(ReproError):
            list(generate_facts(InstanceSpec(domain_size=0)))
        with pytest.raises(ReproError):
            list(generate_facts(InstanceSpec(relations={})))
        with pytest.raises(ReproError):
            list(
                generate_facts(
                    InstanceSpec(relation_weights={"R": 0, "S": 0, "T": 0})
                )
            )
