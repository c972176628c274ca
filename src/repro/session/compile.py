"""Compiled query handles: the "prepared statements" of a session.

``AnalysisSession.compile`` turns a query (object or datalog string)
into a :class:`CompiledQuery`.  The handle carries:

* the query's **canonical form**
  (:func:`~repro.cq.canonical.canonical_query_key`): display names
  dropped and variables renamed, so that ``V(x) :- R(x, y)`` and
  ``W(a) :- R(a, b)`` compile to one handle and share one cache entry;
* a short hex **fingerprint** of that form (stable across processes)
  for logging and report correlation;
* the query's **Proposition 4.9 analysis domain**;
* a lazily-memoized ``crit_D(Q)``, looked up in the session's
  :class:`~repro.core.criticality.CriticalTupleCache`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from ..core.domain_bounds import analysis_domain
from ..cq.canonical import AnyQuery, canonical_query_key, query_fingerprint
from ..relational.domain import Domain
from ..relational.tuples import Fact

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .session import AnalysisSession

__all__ = ["CompiledQuery"]


class CompiledQuery:
    """A query prepared for repeated analysis within one session.

    Instances are created by :meth:`AnalysisSession.compile` and carry
    the canonical key and fingerprint plus a lazily-memoized
    critical-tuple accessor.  Two compiles of α-equivalent queries
    return the *same* object, so identity comparison is meaningful
    within a session.
    """

    __slots__ = ("_session", "_query", "_key", "_fingerprint")

    def __init__(self, session: "AnalysisSession", query: AnyQuery):
        self._session = session
        self._query = query
        self._key = canonical_query_key(query)
        self._fingerprint = query_fingerprint(query)

    # -- identity ------------------------------------------------------------
    @property
    def query(self) -> AnyQuery:
        """The underlying query object."""
        return self._query

    @property
    def session(self) -> "AnalysisSession":
        """The session this query was compiled in."""
        return self._session

    @property
    def canonical_key(self) -> Tuple:
        """The canonical (α-renamed, name-free) form used as the cache key."""
        return self._key

    @property
    def fingerprint(self) -> str:
        """Short hex digest of the canonical form."""
        return self._fingerprint

    @property
    def name(self) -> str:
        """The query's display name."""
        return self._query.name

    @property
    def arity(self) -> int:
        """Arity of the query."""
        return self._query.arity

    @property
    def is_boolean(self) -> bool:
        """True for arity-0 queries."""
        return self._query.is_boolean

    # -- analysis artifacts ----------------------------------------------------
    def analysis_domain(self) -> Domain:
        """The Proposition 4.9 domain for this query analysed alone."""
        return analysis_domain([self._query])

    def critical_tuples(self, domain: Optional[Domain] = None) -> FrozenSet[Fact]:
        """``crit_D(Q)`` over ``domain``, memoized in the session cache.

        When ``domain`` is omitted the session's configured domain (or
        the query's own Proposition 4.9 domain) is used.  Repeated calls
        with the same domain — from this handle, from another compile of
        an α-equivalent query, or from any session analysis method — hit
        the shared cache.
        """
        return self._session.critical_tuples(self._query, domain=domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledQuery({self._query!r}, fingerprint={self._fingerprint})"
