"""Query inputs and their canonical form.

Every analysis takes its secret and views in one of a few shapes, and
every memo keys a query by what it says, not how it is spelled:

* :func:`as_query` and :func:`as_queries` coerce the inputs: datalog
  strings are parsed (once per text per process: equal texts share one
  immutable query object), query objects pass through, and one view, a
  sequence of views or a ``recipient → view`` mapping all become one
  non-empty list;
* :func:`canonical_query_key` drops display names and renames variables
  to a fixed scheme in order of first occurrence, so that
  ``V(x) :- R(x, y)`` and ``W(a) :- R(a, b)`` share one key (the
  critical-tuple cache and the probability kernel's memo table both key
  by it);
* :func:`query_fingerprint` is a short hex digest of that key, stable
  across processes, for logging and report correlation.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from typing import Dict, List, Tuple, Union

from ..exceptions import SecurityAnalysisError
from .parser import parse_query
from .query import ConjunctiveQuery
from .terms import Variable, is_constant, is_variable
from .union import UnionQuery

__all__ = [
    "AnyQuery",
    "QueryLike",
    "as_query",
    "as_queries",
    "canonical_query_key",
    "query_fingerprint",
]

AnyQuery = Union[ConjunctiveQuery, UnionQuery]
QueryLike = Union[str, ConjunctiveQuery, UnionQuery]


#: Bound on the parsed queries :func:`as_query` keeps, one per datalog text.
_PARSED_LIMIT = 1024

_parsed: "OrderedDict[str, AnyQuery]" = OrderedDict()
_parsed_lock = threading.Lock()


def _parse_once(text: str) -> AnyQuery:
    """The parsed query of a datalog text, parsed once while it stays recent.

    Queries are immutable, so every caller of one text shares one object,
    and with it the canonical key and the compiled plan stored on it.  A
    malformed text raises on every call and is never kept.
    """
    with _parsed_lock:
        query = _parsed.get(text)
        if query is not None:
            _parsed.move_to_end(text)
            return query
    parsed = parse_query(text)
    with _parsed_lock:
        # Racing first parses of one text agree on the first one stored.
        query = _parsed.setdefault(text, parsed)
        _parsed.move_to_end(text)
        while len(_parsed) > _PARSED_LIMIT:
            _parsed.popitem(last=False)
    return query


def as_query(value: QueryLike, role: str = "query") -> AnyQuery:
    """Coerce a query-like value, with a clear error for unsupported types.

    Strings are parsed as datalog, once per text (an LRU of
    :data:`_PARSED_LIMIT` texts): equal texts return one shared query
    object.  :class:`ConjunctiveQuery` and :class:`UnionQuery` pass
    through.  Anything else raises a :class:`SecurityAnalysisError`
    naming the offending role, rather than an ``AttributeError`` deep
    inside an analysis.
    """
    if isinstance(value, (ConjunctiveQuery, UnionQuery)):
        return value
    if isinstance(value, str):
        return _parse_once(value)
    raise SecurityAnalysisError(
        f"the {role} must be a ConjunctiveQuery, a UnionQuery or a datalog "
        f"string, got {type(value).__name__}: {value!r}"
    )


def as_queries(
    views: Union[QueryLike, Iterable[QueryLike], Mapping[str, QueryLike]],
) -> List[AnyQuery]:
    """One view, a sequence of views or a mapping's values, as a non-empty list.

    Each view is coerced by :func:`as_query`; a mapping contributes its
    values in order (its keys name recipients, not views).  Raises
    :class:`SecurityAnalysisError` without views: every analysis needs
    at least one.
    """
    if isinstance(views, Mapping):
        views = views.values()
    elif isinstance(views, (str, ConjunctiveQuery, UnionQuery)) or not isinstance(
        views, Iterable
    ):
        views = (views,)
    queries = [as_query(view, "view") for view in views]
    if not queries:
        raise SecurityAnalysisError("at least one view is required")
    return queries


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
