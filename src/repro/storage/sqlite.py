"""A sqlite3-backed fact store for million-fact instances.

:class:`SQLiteFactStore` keeps one SQL table per ``(relation, arity)``
pair (instances are plain fact sets, so one relation may hold facts of
several arities — mirroring
:meth:`~repro.relational.instance.Instance`'s behaviour), with columns
``c0 … c{k-1}`` and a UNIQUE constraint over all of them (set
semantics: re-loading a fact is a no-op).  A ``repro_meta`` table maps
relation/arity pairs to their physical tables, so a store file reopens
with its full layout.

**Untyped columns.**  Every column is declared with *no* type — NONE
affinity, under which SQLite stores each value exactly as bound and,
crucially, never converts comparison operands.  Any declared affinity
would be a correctness bug, not an optimisation choice: an ``INTEGER``
column makes SQLite coerce the query constant ``"1"`` to the integer
``1`` before comparing, so a typed store would report ``Fact("R",
("1",))`` present in a store holding only ``Fact("R", (1,))`` — a wrong
non-empty answer, where Python equality (and the naive/compiled
engines) keep ``int`` and ``str`` forever distinct.  Under NONE
affinity values of different storage classes never compare equal, while
``int``/``float`` equality stays numeric (``1 == 1.0`` in SQL exactly
as in Python).

**Values.**  Fact values must be ``int``, ``float`` or ``str`` (``bool``
is stored as its integer value, which matches ``Fact`` equality —
``Fact("R", (True,)) == Fact("R", (1,))`` already holds in memory).
``None`` and structured values are rejected: SQL ``NULL`` does not obey
equality and would corrupt joins.

**Covering indexes.**  :meth:`ensure_index` creates an index whose
leading columns are a join plan's probe-key positions and whose
remaining columns complete the cover, so indexed lookups never touch
the base table.  :mod:`repro.cq.sql` derives the requested positions
from the join planner's probe keys.

The store is safe to share across threads (one connection guarded by an
RLock; the audit service's worker pool is the intended consumer).
"""

from __future__ import annotations

import csv
import json
import re
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .. import faults
from ..exceptions import ReproError
from ..obs import span
from ..obs.counters import StatCounters
from ..relational.instance import Instance
from ..relational.tuples import Fact
from .base import FactStore

__all__ = ["SQLiteFactStore", "STORAGE_STATS", "reset_storage_stats"]

#: Process-wide storage counters (monotone; surfaced through
#: :func:`repro.cq.evaluation_stats` with a ``storage_`` prefix).
#: A :class:`~repro.obs.counters.StatCounters`: increments go through
#: ``.bump()`` so counts survive concurrent loads on worker threads.
STORAGE_STATS = StatCounters(
    (
        "facts_loaded",
        "facts_removed",
        "tables_created",
        "indexes_created",
        "stores_opened",
    )
)

#: Name of the layout metadata table inside every store.
_META_TABLE = "repro_meta"

#: Every physical table this module generates is named ``f<N>``.  Names
#: read back from a store file's catalog are interpolated into SQL text,
#: so anything else is rejected at open time (a crafted catalog must not
#: become arbitrary SQL).
_TABLE_NAME = re.compile(r"f\d+")

#: Facts are inserted in batches of this many rows.
_BATCH_SIZE = 5000


def reset_storage_stats() -> None:
    """Zero the storage counters (tests/benchmarks)."""
    STORAGE_STATS.reset()


def _check_value(value: object) -> object:
    """Validate one fact value for SQL storage."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float, str)):
        return value
    raise ReproError(
        f"fact value {value!r} of type {type(value).__name__} cannot be stored; "
        "a SQL-backed store holds int, float and str values only"
    )


def _coerce_cell(text: str) -> object:
    """CSV cells are text; recover ints and floats when they parse."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class SQLiteFactStore(FactStore):
    """A fact store persisted in a sqlite3 database.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` (the default) for a transient
        in-process store.  Opening an existing store file restores its
        layout and facts.
    """

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self._path = str(path)
        self._connection = sqlite3.connect(
            self._path, check_same_thread=False, isolation_level=None
        )
        self._lock = threading.RLock()
        self._closed = False
        #: (relation, arity) -> physical table name
        self._tables: Dict[Tuple[str, int], str] = {}
        #: (table, leading positions) pairs whose index exists
        self._indexes: set = set()
        self._table_counter = 0
        with self._lock:
            cursor = self._connection.cursor()
            if self._path != ":memory:":
                cursor.execute("PRAGMA journal_mode = WAL")
                cursor.execute("PRAGMA synchronous = NORMAL")
            cursor.execute(
                f"CREATE TABLE IF NOT EXISTS {_META_TABLE} ("
                "relation TEXT NOT NULL, arity INTEGER NOT NULL, "
                "table_name TEXT NOT NULL UNIQUE, "
                "PRIMARY KEY (relation, arity))"
            )
            for relation, arity, table in cursor.execute(
                f"SELECT relation, arity, table_name FROM {_META_TABLE}"
            ).fetchall():
                if not _TABLE_NAME.fullmatch(table):
                    # The catalog names are interpolated into SQL text
                    # verbatim; a crafted store file must not get to run
                    # arbitrary statements through them.
                    self._connection.close()
                    self._closed = True
                    raise ReproError(
                        f"refusing to open {self._path!r}: catalog table "
                        f"name {table!r} does not match the generated "
                        "'f<N>' pattern"
                    )
                self._tables[(relation, arity)] = table
                self._table_counter = max(self._table_counter, int(table[1:]) + 1)
            for (name,) in cursor.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND name LIKE 'ix_%'"
            ).fetchall():
                self._indexes.add(name)
        STORAGE_STATS.bump("stores_opened")

    # -- lifecycle -------------------------------------------------------------
    @property
    def path(self) -> str:
        """The database path (``":memory:"`` for transient stores)."""
        return self._path

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            if not self._closed:
                self._connection.close()
                self._closed = True

    def __enter__(self) -> "SQLiteFactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def mirror(cls, facts: Iterable[Fact]) -> "SQLiteFactStore":
        """An in-memory store holding the given facts."""
        store = cls(":memory:")
        store.load_facts(facts)
        return store

    # -- loading ---------------------------------------------------------------
    def load_facts(self, facts: Iterable[Fact], batch_size: int = _BATCH_SIZE) -> int:
        """Bulk-load facts (set semantics: duplicates are ignored).

        Facts are grouped per ``(relation, arity)`` and inserted in
        batches of ``batch_size`` inside one transaction.  Returns the
        number of facts offered (the store may already hold some).
        """
        offered = 0
        pending: Dict[Tuple[str, int], List[Tuple[object, ...]]] = {}
        with span("storage.load") as sp, self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                for fact in facts:
                    values = tuple(_check_value(v) for v in fact.values)
                    key = (fact.relation, len(values))
                    rows = pending.setdefault(key, [])
                    rows.append(values if values else (0,))
                    offered += 1
                    if len(rows) >= batch_size:
                        self._insert_batch(cursor, key, rows)
                        pending[key] = []
                for key, rows in pending.items():
                    if rows:
                        self._insert_batch(cursor, key, rows)
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                raise
            if sp:
                sp.set("facts", offered)
        STORAGE_STATS.bump("facts_loaded", offered)
        return offered

    def add(self, *facts: Fact) -> int:
        """Load positional facts (convenience over :meth:`load_facts`)."""
        return self.load_facts(facts)

    def remove(self, *facts: Fact) -> int:
        """Delete facts from the store (missing facts are ignored).

        Returns the number of rows actually deleted.  This is the
        mutation half the incremental audit layer relies on: the sql
        engine's batched delta (``delta_apply_many``) advances a store
        in place through :meth:`add` and this method.  No read writes a
        store.
        """
        removed = 0
        with span("storage.remove") as sp, self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                for fact in facts:
                    try:
                        values = tuple(_check_value(v) for v in fact.values)
                    except ReproError:
                        continue  # unstorable values are never in the store
                    arity = len(values)
                    table = self._tables.get((fact.relation, arity))
                    if table is None:
                        continue
                    where, params = self._row_predicate(table, arity, values)
                    cursor.execute(f"DELETE FROM {table} WHERE {where}", params)
                    removed += cursor.rowcount
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                raise
            if sp:
                sp.set("facts", removed)
        STORAGE_STATS.bump("facts_removed", removed)
        return removed

    def load_json(self, path: Union[str, Path]) -> int:
        """Load facts from a JSON document.

        Two shapes are accepted (``{"facts": ...}`` wrapping either)::

            [["Emp", "alice", "HR", 100], ["Emp", "bob", "Eng", 101]]
            {"Emp": [["alice", "HR", 100], ["bob", "Eng", 101]]}

        The first is a list of ``[relation, value, ...]`` arrays; the
        second maps relation names to value rows.
        """
        with open(path, "r", encoding="utf8") as handle:
            document = json.load(handle)
        if isinstance(document, Mapping) and "facts" in document:
            document = document["facts"]
        facts: List[Fact] = []
        if isinstance(document, Mapping):
            for relation, rows in document.items():
                if not isinstance(relation, str) or not isinstance(rows, Sequence):
                    raise ReproError(
                        f"{path}: a fact mapping must map relation names to "
                        "lists of value rows"
                    )
                for row in rows:
                    if not isinstance(row, Sequence) or isinstance(row, str):
                        raise ReproError(f"{path}: fact row {row!r} is not a list")
                    facts.append(Fact(relation, tuple(row)))
        elif isinstance(document, Sequence):
            for entry in document:
                if (
                    not isinstance(entry, Sequence)
                    or isinstance(entry, str)
                    or not entry
                    or not isinstance(entry[0], str)
                ):
                    raise ReproError(
                        f"{path}: each fact must be a [relation, value, ...] array, "
                        f"got {entry!r}"
                    )
                facts.append(Fact(entry[0], tuple(entry[1:])))
        else:
            raise ReproError(
                f"{path} is not a fact file: expected a list of facts or a "
                "relation→rows mapping (optionally under a 'facts' key)"
            )
        return self.load_facts(facts)

    def load_csv(
        self, path: Union[str, Path], relation: str, coerce: bool = True
    ) -> int:
        """Load one relation from a headerless CSV file (one fact per row).

        With ``coerce`` (the default) numeric-looking cells become ints
        or floats; otherwise every value stays a string.
        """
        if not relation:
            raise ReproError("loading CSV facts requires a relation name")
        facts: List[Fact] = []
        with open(path, "r", encoding="utf8", newline="") as handle:
            for row in csv.reader(handle):
                if not row:
                    continue
                values = tuple(_coerce_cell(cell) if coerce else cell for cell in row)
                facts.append(Fact(relation, values))
        return self.load_facts(facts)

    # -- the FactStore surface -------------------------------------------------
    def __iter__(self) -> Iterator[Fact]:
        for (relation, arity), table in sorted(self._tables.items()):
            for row in self.execute(f"SELECT * FROM {table}"):
                yield Fact(relation, tuple(row[:arity]))

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Fact):
            return False
        arity = len(fact.values)
        table = self._tables.get((fact.relation, arity))
        if table is None:
            return False
        try:
            values = tuple(_check_value(v) for v in fact.values)
        except ReproError:
            return False  # unstorable values are never in the store
        where, params = self._row_predicate(table, arity, values)
        rows = self.execute(f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", params)
        return bool(rows)

    def __len__(self) -> int:
        total = 0
        for table in self._tables.values():
            total += self.execute(f"SELECT COUNT(*) FROM {table}")[0][0]
        return total

    def relation(self, name: str) -> Iterator[Fact]:
        """All facts of one relation, across every stored arity."""
        for (relation, arity), table in sorted(self._tables.items()):
            if relation != name:
                continue
            for row in self.execute(f"SELECT * FROM {table}"):
                yield Fact(relation, tuple(row[:arity]))

    def relations(self) -> List[Tuple[str, int, int]]:
        """``(relation, arity, fact count)`` triples, sorted."""
        summary = []
        for (relation, arity), table in sorted(self._tables.items()):
            count = self.execute(f"SELECT COUNT(*) FROM {table}")[0][0]
            summary.append((relation, arity, count))
        return summary

    # -- the SQL surface the sql engine compiles against ------------------------
    def table(self, relation: str, arity: int) -> Optional[str]:
        """The physical table of a ``(relation, arity)`` pair, if any.

        ``None`` means the store holds no such facts — a query atom over
        the pair has an empty answer.
        """
        return self._tables.get((relation, arity))

    def execute(
        self, sql: str, params: Sequence[object] = ()
    ) -> List[Tuple[object, ...]]:
        """Run one statement and fetch every row (thread-safe)."""
        for rule in faults.fire("storage.execute"):
            faults.perform(rule)
        with self._lock:
            if self._closed:
                raise ReproError(f"the fact store {self._path!r} is closed")
            return self._connection.execute(sql, tuple(params)).fetchall()

    def ensure_index(
        self, relation: str, arity: int, positions: Sequence[int]
    ) -> bool:
        """Create the covering index probing ``positions``, if missing.

        The index leads with the probe-key positions (the columns a join
        plan constrains) and appends the remaining columns so lookups
        are index-only.  Returns True when an index was created.
        """
        table = self._tables.get((relation, arity))
        positions = tuple(dict.fromkeys(int(p) for p in positions))
        if table is None or not positions or any(
            p < 0 or p >= max(arity, 1) for p in positions
        ):
            return False
        name = f"ix_{table}_" + "_".join(str(p) for p in positions)
        if name in self._indexes:
            return False
        ordered = list(positions) + [
            p for p in range(max(arity, 1)) if p not in positions
        ]
        columns = ", ".join(f"c{p}" for p in ordered)
        with self._lock:
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {name} ON {table} ({columns})"
            )
            self._indexes.add(name)
        STORAGE_STATS.bump("indexes_created")
        return True

    # -- internals ---------------------------------------------------------------
    def _row_predicate(
        self, table: str, arity: int, values: Tuple[object, ...]
    ) -> Tuple[str, Tuple[object, ...]]:
        """An exact-row WHERE clause (arity-0 tables match their dummy row)."""
        if arity == 0:
            return "c0 = 0", ()
        where = " AND ".join(f"c{p} = ?" for p in range(arity))
        return where, values

    def _insert_batch(
        self,
        cursor: sqlite3.Cursor,
        key: Tuple[str, int],
        rows: List[Tuple[object, ...]],
    ) -> None:
        relation, arity = key
        width = max(arity, 1)
        table = self._tables.get(key)
        if table is None:
            table = self._create_table(cursor, relation, arity)
        placeholders = ", ".join("?" for _ in range(width))
        cursor.executemany(
            f"INSERT OR IGNORE INTO {table} VALUES ({placeholders})", rows
        )

    def _create_table(
        self, cursor: sqlite3.Cursor, relation: str, arity: int
    ) -> str:
        width = max(arity, 1)
        table = f"f{self._table_counter}"
        self._table_counter += 1
        # Columns carry no declared type on purpose (NONE affinity);
        # see the module docstring.
        columns = ", ".join(f"c{p}" for p in range(width))
        cursor.execute(f"CREATE TABLE {table} ({columns}, UNIQUE ({columns}))")
        cursor.execute(
            f"INSERT INTO {_META_TABLE} VALUES (?, ?, ?)",
            (relation, arity, table),
        )
        self._tables[(relation, arity)] = table
        STORAGE_STATS.bump("tables_created")
        return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SQLiteFactStore(path={self._path!r}, tables={len(self._tables)})"


# An Instance already satisfies the FactStore protocol; the SQL store is
# the second registered implementation (by inheritance).
