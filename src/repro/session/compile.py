"""Query compilation: normal forms, fingerprints and compiled handles.

``AnalysisSession.compile`` turns a query (object or datalog string)
into a :class:`CompiledQuery` — the "prepared statement" of the security
analyzer.  Compilation computes:

* the **canonical form** of the query: display names dropped and
  variables renamed to a fixed scheme in order of first occurrence, so
  that ``V(x) :- R(x, y)`` and ``W(a) :- R(a, b)`` share one cache
  entry;
* a short hex **fingerprint** of the canonical form (stable across
  processes) for logging and report correlation;
* the query's **Proposition 4.9 analysis domain** requirements, so the
  session can build one shared domain per batch;
* a lazily-memoized ``crit_D(Q)``, looked up in the session's
  :class:`~repro.session.cache.CriticalTupleCache`.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple, Union

from ..cq.parser import parse_query
from ..cq.query import ConjunctiveQuery
from ..cq.terms import Variable, is_constant, is_variable
from ..cq.union import UnionQuery
from ..exceptions import SecurityAnalysisError
from ..relational.domain import Domain
from ..relational.tuples import Fact

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .session import AnalysisSession

__all__ = [
    "AnyQuery",
    "QueryLike",
    "as_query",
    "canonical_query_key",
    "query_fingerprint",
    "CompiledQuery",
]

AnyQuery = Union[ConjunctiveQuery, UnionQuery]
QueryLike = Union[str, ConjunctiveQuery, UnionQuery]


def as_query(value: QueryLike, role: str = "query") -> AnyQuery:
    """Coerce a query-like value, with a clear error for unsupported types.

    Strings are parsed as datalog; :class:`ConjunctiveQuery` and
    :class:`UnionQuery` pass through.  Anything else raises a
    :class:`SecurityAnalysisError` naming the offending role — the
    uniform type validation the legacy entry points only performed
    implicitly.
    """
    if isinstance(value, (ConjunctiveQuery, UnionQuery)):
        return value
    if isinstance(value, str):
        return parse_query(value)
    raise SecurityAnalysisError(
        f"the {role} must be a ConjunctiveQuery, a UnionQuery or a datalog "
        f"string, got {type(value).__name__}: {value!r}"
    )


def _conjunctive_key(query: ConjunctiveQuery) -> Tuple:
    """Canonical form of one conjunctive query.

    Variables are renamed ``v0, v1, ...`` in order of first occurrence
    across head, body (in body order) and comparisons; constants keep
    their value (tagged with their type so ``1`` and ``"1"`` stay
    distinct).  The display name is dropped.  Body order is preserved —
    reordered bodies hash differently, which costs a cache miss but
    never a wrong answer.
    """
    renaming: Dict[Variable, str] = {}

    def term_key(term) -> Tuple:
        if is_variable(term):
            if term not in renaming:
                renaming[term] = f"v{len(renaming)}"
            return ("var", renaming[term])
        if is_constant(term):
            return ("const", type(term.value).__name__, repr(term.value))
        return ("term", repr(term))  # defensive: unknown term kinds

    head = tuple(term_key(term) for term in query.head)
    body = tuple(
        (atom.relation, tuple(term_key(term) for term in atom.terms))
        for atom in query.body
    )
    comparisons = tuple(
        sorted(
            (comparison.op, term_key(comparison.left), term_key(comparison.right))
            for comparison in query.comparisons
        )
    )
    return ("cq", head, body, comparisons)


#: Attribute of a query object holding its canonical key.
_KEY_ATTRIBUTE = "_canonical_key"


def canonical_query_key(query: AnyQuery) -> Tuple:
    """A hashable canonical form shared by all α-equivalent spellings.

    For unions the disjunct keys are sorted, so disjunct order does not
    split the cache.  Queries are immutable, so the key is computed once
    per query object and stored on it, as
    :func:`~repro.cq.compiled.plan_for` stores a compiled plan: the
    probability kernel keys every compiled artifact by it.
    """
    key = getattr(query, _KEY_ATTRIBUTE, None)
    if key is None:
        if isinstance(query, UnionQuery):
            key = ("union", tuple(sorted(_conjunctive_key(d) for d in query.disjuncts)))
        else:
            key = _conjunctive_key(query)
        try:
            object.__setattr__(query, _KEY_ATTRIBUTE, key)
        except (AttributeError, TypeError):  # pragma: no cover - exotic subclass
            pass
    return key


def query_fingerprint(query: AnyQuery) -> str:
    """A short stable hex digest of the canonical form."""
    digest = hashlib.sha256(repr(canonical_query_key(query)).encode("utf8"))
    return digest.hexdigest()[:12]


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
        from ..core.domain_bounds import analysis_domain

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
