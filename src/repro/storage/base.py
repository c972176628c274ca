"""The fact-store protocol behind query evaluation.

Every evaluation engine ultimately consumes a *set of facts*.  The
in-memory :class:`~repro.relational.instance.Instance` — the paper's
notion of a database instance — is one implementation; the
sqlite3-backed :class:`~repro.storage.sqlite.SQLiteFactStore` is
another, sized for the million-fact instances the hospital/census
scenarios describe.  :class:`FactStore` names the minimal surface the
engines rely on, so code can be written against "a store" and run
against either: :mod:`repro.cq.evaluation` runs a
:class:`~repro.storage.sqlite.SQLiteFactStore` on the sql engine in
place, and every other store on the compiled engine.

``Instance`` is registered as a virtual subclass rather than inheriting:
the relational layer predates this module and must not depend on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from ..relational.instance import Instance
from ..relational.tuples import Fact

__all__ = ["FactStore"]


class FactStore(ABC):
    """The minimal fact-set surface query evaluation consumes.

    A store is a (logical) set of :class:`~repro.relational.tuples.Fact`
    objects — set semantics, no duplicates, no order guarantees beyond
    what each implementation documents.  Implementations may hold the
    facts in memory (:class:`~repro.relational.instance.Instance`) or on
    disk (:class:`~repro.storage.sqlite.SQLiteFactStore`).
    """

    @abstractmethod
    def __iter__(self) -> Iterator[Fact]:
        """Iterate over every fact of the store."""

    @abstractmethod
    def __contains__(self, fact: Fact) -> bool:
        """Fact membership."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of facts in the store."""

    @abstractmethod
    def relation(self, name: str) -> Iterable[Fact]:
        """All facts of one relation (any arity)."""

    def to_instance(self) -> Instance:
        """Materialise the store as an in-memory instance.

        Convenient for small stores and cross-validation; for stores in
        the 10^5–10^6-fact range this defeats the point of the store —
        evaluate against the store itself, which runs the sql engine.
        """
        return Instance(self)


# ``Instance`` provides the whole surface already (``relation`` returns a
# frozenset, which is a fine Iterable[Fact]); registering it makes
# ``isinstance(instance, FactStore)`` true without coupling the
# relational layer to the storage package.
FactStore.register(Instance)
