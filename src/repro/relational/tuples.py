"""Ground tuples (facts) and the tuple space ``tup(D)``.

A :class:`Fact` is a ground tuple ``R(a, b, c)`` — a relation name plus a
tuple of constants.  ``tup(D)`` (Section 3.1) is the set of all facts
that can be formed over a schema using constants from the domain; it is
the sample space of the paper's probabilistic model, where each fact is
an independent probabilistic event.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import SchemaError
from .domain import Domain
from .schema import RelationSchema, Schema

__all__ = ["Fact", "tuple_space", "tuple_space_size", "facts_of_relation", "relation_slice"]

#: Attribute of a :class:`Schema` holding, per domain's values, each
#: relation's slice of ``tup(D)`` by name and ``tup(D)`` under ``None``.
_TUPLE_SPACES_ATTRIBUTE = "_tuple_spaces"


@dataclass(frozen=True, order=True)
class Fact:
    """A ground tuple ``relation(values...)``.

    Facts are immutable, hashable and totally ordered (ordering is only
    used to make enumeration deterministic; it has no semantic meaning).
    """

    relation: str
    values: Tuple[object, ...]

    def __init__(self, relation: str, values: Sequence[object]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "values", tuple(values))

    @property
    def arity(self) -> int:
        """Number of values in the fact."""
        return len(self.values)

    def __getitem__(self, index: int) -> object:
        return self.values[index]

    def project(self, positions: Sequence[int]) -> Tuple[object, ...]:
        """The sub-tuple of values at the given positions."""
        return tuple(self.values[i] for i in positions)

    def replace(self, position: int, value: object) -> "Fact":
        """A copy of this fact with one value replaced."""
        values = list(self.values)
        values[position] = value
        return Fact(self.relation, values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"


def facts_of_relation(
    relation: RelationSchema, domain: Domain
) -> Iterator[Fact]:
    """Enumerate every fact of one relation over (per-attribute) domains.

    Attributes with a declared :class:`~repro.relational.domain.Domain`
    range over it; the remaining attributes range over ``domain``.
    """
    position_domains = relation.position_domains(domain)
    for combo in itertools.product(*(d.values for d in position_domains)):
        yield Fact(relation.name, combo)


def tuple_space(schema: Schema, domain: Domain | None = None) -> List[Fact]:
    """The full tuple space ``tup(D)`` of a schema as a deterministic list.

    Parameters
    ----------
    schema:
        The database schema.
    domain:
        Optional override of the schema's global domain (useful when
        analysing the same queries over domains of different sizes).
    """
    domain = domain or schema.domain
    facts: List[Fact] = []
    for relation in schema:
        facts.extend(facts_of_relation(relation, domain))
    return facts


def _kept(schema: Schema, domain: Domain, key: Optional[str], build) -> FrozenSet[Fact]:
    """The set under ``key`` for (schema, domain), made by ``build()`` on first use.

    Schemas are immutable, so the set lives exactly as long as the schema
    does, as :func:`~repro.cq.compiled.plan_for` keeps a plan on its query.
    """
    # setdefault is atomic: racing first uses agree on one set.
    spaces = vars(schema).setdefault(_TUPLE_SPACES_ATTRIBUTE, {})
    kept = spaces.get(domain.values)
    if kept is None:
        kept = spaces.setdefault(domain.values, {})
    facts = kept.get(key)
    if facts is None:
        facts = kept.setdefault(key, build())
    return facts


def relation_slice(
    schema: Schema, relation: str, domain: Domain | None = None
) -> FrozenSet[Fact]:
    """One relation's facts in ``tup(D)`` (``domain`` defaults to the schema's).

    Built once per (schema, domain); attributes with a declared domain
    range over it, as in :func:`facts_of_relation`.
    """
    domain = domain or schema.domain
    return _kept(
        schema,
        domain,
        relation,
        lambda: frozenset(facts_of_relation(schema.relation(relation), domain)),
    )


def _tuple_space_set(schema: Schema, domain: Domain) -> FrozenSet[Fact]:
    """``tup(D)`` as a set: the union of every relation's slice, kept with them."""
    return _kept(
        schema,
        domain,
        None,
        lambda: frozenset().union(
            *(relation_slice(schema, relation.name, domain) for relation in schema)
        ),
    )


def tuple_space_size(schema: Schema, domain: Domain | None = None) -> int:
    """Size of ``tup(D)`` without materialising it."""
    domain = domain or schema.domain
    total = 0
    for relation in schema:
        count = 1
        for position_domain in relation.position_domains(domain):
            count *= len(position_domain)
        total += count
    return total


def validate_fact(schema: Schema, fact: Fact) -> None:
    """Raise :class:`SchemaError` if ``fact`` does not fit the schema."""
    relation = schema.relation(fact.relation)
    if fact.arity != relation.arity:
        raise SchemaError(
            f"fact {fact!r} has arity {fact.arity}, expected {relation.arity}"
        )
