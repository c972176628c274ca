"""Domain-independence bounds (Proposition 4.9).

Query-view security via critical tuples is checked over a concrete
finite domain.  Proposition 4.9 shows the check is *domain-independent*
provided the domain is "large enough": with ``n`` the largest number of
variables and constants in any of the queries, a domain of size ``n``
suffices for comparison-free conjunctive queries, and ``n(n+1)`` when
order predicates are present (fresh constants are needed between any two
mentioned constants).

This module computes the bound and synthesises an *analysis domain*
containing all the queries' constants padded with fresh symbolic
constants up to the required size.
"""

from __future__ import annotations

import itertools
import threading
from typing import List, Sequence

from ..cq.query import ConjunctiveQuery
from ..exceptions import SecurityAnalysisError
from ..relational.domain import Domain
from ..relational.schema import RelationSchema, Schema

__all__ = [
    "max_symbol_count",
    "required_domain_size",
    "analysis_domain",
    "analysis_schema",
]


def max_symbol_count(queries: Sequence[ConjunctiveQuery]) -> int:
    """The ``n`` of Proposition 4.9: the largest number of variables plus
    constants occurring in any single query."""
    if not queries:
        return 0
    return max(query.symbol_count() for query in queries)


def required_domain_size(queries: Sequence[ConjunctiveQuery]) -> int:
    """Domain size guaranteeing a domain-independent security verdict.

    ``n`` for comparison-free queries (footnote 3 of the paper) and
    ``n(n+1)`` when any query uses an order predicate.
    """
    n = max_symbol_count(queries)
    if n == 0:
        return 1
    if any(query.has_order_predicates for query in queries):
        return n * (n + 1)
    return n


def _all_constants(queries: Sequence[ConjunctiveQuery]) -> List[object]:
    constants: List[object] = []
    seen = set()
    for query in queries:
        for value in sorted(query.constants, key=repr):
            if value not in seen:
                seen.add(value)
                constants.append(value)
    return constants


def analysis_domain(
    queries: Sequence[ConjunctiveQuery],
    minimum_size: int | None = None,
    fresh_prefix: str = "d",
) -> Domain:
    """A domain suitable for a domain-independent security analysis.

    Contains every constant mentioned by the queries plus fresh symbolic
    constants up to :func:`required_domain_size` (or ``minimum_size`` if
    larger).  When the queries use order predicates over numeric
    constants, fresh *numeric* values are interleaved so that the order
    type required by footnote 3 (fresh constants between any two
    mentioned constants) is realised.
    """
    constants = _all_constants(queries)
    target = required_domain_size(queries)
    if minimum_size is not None:
        target = max(target, minimum_size)
    target = max(target, len(constants), 1)

    has_order = any(query.has_order_predicates for query in queries)
    numeric = [c for c in constants if isinstance(c, (int, float)) and not isinstance(c, bool)]
    values: List[object] = list(constants)

    if has_order and numeric and len(numeric) == len(constants):
        # Interleave fresh numeric constants between, below and above the
        # mentioned ones so order predicates can distinguish them.
        ordered = sorted(set(numeric))
        fresh: List[float] = []
        fresh.append(ordered[0] - 1)
        for low, high in zip(ordered, ordered[1:]):
            fresh.append((low + high) / 2)
        fresh.append(ordered[-1] + 1)
        candidates = itertools.chain(
            fresh,
            (ordered[-1] + 1 + k for k in itertools.count(1)),
        )
        for value in candidates:
            if len(values) >= target:
                break
            if value not in values:
                values.append(value)
    else:
        counter = itertools.count(0)
        while len(values) < target:
            candidate = f"{fresh_prefix}{next(counter)}"
            if candidate not in values:
                values.append(candidate)
    return Domain(values, name="D_analysis")


#: Bound on the analysis schemas kept on one input schema: a long-lived
#: schema meets a new analysis domain for each new set of query constants.
_UNTYPED_SCHEMA_LIMIT = 64

#: Attribute of a :class:`Schema` holding its analysis schemas by domain.
_UNTYPED_SCHEMAS_ATTRIBUTE = "_untyped_schemas"

_untyped_lock = threading.Lock()


def untyped_schema(schema: Schema, domain: Domain) -> Schema:
    """A copy of ``schema`` over ``domain`` with per-attribute domains dropped.

    The core security analysis always works over a single untyped domain
    (the paper's model); per-attribute domains are only a convenience for
    building dictionaries and example instances.  Keeping them during a
    critical-tuple computation could hide critical tuples that exist over
    the analysis domain, so every decision procedure strips them first.

    Schemas are immutable, so the copy is built once per (schema, domain)
    and kept on ``schema``, keyed by the domain's values and name (the
    copy's domain is the one asked for), as
    :func:`~repro.core.criticality.base._tuple_space_set` keeps
    ``tup(D)``; the copy's own ``tup(D)`` memo then carries across
    decisions.  At most :data:`_UNTYPED_SCHEMA_LIMIT` copies are kept,
    oldest out first.
    """
    key = (domain.values, domain.name)
    # setdefault is atomic: racing first uses agree on one dictionary.
    copies = vars(schema).setdefault(_UNTYPED_SCHEMAS_ATTRIBUTE, {})
    untyped = copies.get(key)
    if untyped is None:
        stripped = Schema(
            [
                RelationSchema(relation.name, relation.attributes, {}, relation.key)
                for relation in schema
            ],
            domain=domain,
        )
        with _untyped_lock:
            untyped = copies.setdefault(key, stripped)
            while len(copies) > _UNTYPED_SCHEMA_LIMIT:
                del copies[next(iter(copies))]
    return untyped


def analysis_schema(
    schema: Schema,
    queries: Sequence[ConjunctiveQuery],
    domain: Domain | None = None,
) -> Schema:
    """The untyped schema every decision procedure works over.

    Without ``domain`` the schema is re-targeted at the queries'
    synthesised :func:`analysis_domain`.  An explicit ``domain`` is kept,
    but must meet Proposition 4.9's bound (:func:`required_domain_size`):
    over a smaller one a verdict need not be domain-independent, so it
    raises :class:`~repro.exceptions.SecurityAnalysisError`.  Either way
    per-attribute domains are dropped (:func:`untyped_schema`).
    """
    if domain is None:
        domain = analysis_domain(queries)
    else:
        minimum = required_domain_size(queries)
        if len(domain) < minimum:
            raise SecurityAnalysisError(
                f"analysis domain has {len(domain)} constants but Proposition 4.9 "
                f"requires at least {minimum} for a domain-independent verdict"
            )
    return untyped_schema(schema, domain)
