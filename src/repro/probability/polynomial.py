"""Multilinear query polynomials ``f_Q`` (Section 4.3 of the paper).

For a boolean query ``Q`` over a tuple space ``{t1, ..., tn}``, the
probability that ``Q`` is true is a polynomial ``f_Q(x1, ..., xn)`` in
the tuple probabilities ``xi = P(ti)``.  The proofs of Theorems 4.5 and
4.8 rest on elementary properties of these polynomials
(Proposition 4.13):

1. every variable has degree ≤ 1 (the polynomial is multilinear),
2. ``xi`` has degree 1 **iff** ``ti ∈ crit(Q)``,
3. if ``crit(Q1) ∩ crit(Q2) = ∅`` then ``f_{Q1∧Q2} = f_{Q1}·f_{Q2}``,
4. monotone queries have non-negative coefficients for each variable
   once the others are fixed in ``[0,1]``,
5. Shannon expansion: ``f_{Q[tn=false]} = f_Q[xn=0]`` and
   ``f_{Q[tn=true]} = f_Q[xn=1]``.

:class:`MultilinearPolynomial` represents such polynomials exactly (with
:class:`~fractions.Fraction` coefficients) in the monomial basis indexed
by sets of facts, and :func:`query_polynomial` builds ``f_Q`` from a
boolean query by a subset Möbius transform of its truth table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..cq.query import ConjunctiveQuery
from ..cq.witness import compile_query_table
from ..exceptions import IntractableAnalysisError, ProbabilityError
from ..relational.tuples import Fact

__all__ = ["MultilinearPolynomial", "query_polynomial", "truth_table"]

Monomial = FrozenSet[Fact]

#: Guard on the number of facts for exact polynomial construction.
DEFAULT_MAX_FACTS = 18


class MultilinearPolynomial:
    """A multilinear polynomial over variables indexed by facts.

    The polynomial is stored as a mapping ``monomial → coefficient``
    where a monomial is a frozenset of facts (the product of their
    variables) and coefficients are exact fractions.  The zero polynomial
    has an empty mapping.
    """

    def __init__(self, coefficients: Optional[Mapping[Monomial, Fraction]] = None):
        self._coefficients: Dict[Monomial, Fraction] = {}
        for monomial, coefficient in (coefficients or {}).items():
            coefficient = Fraction(coefficient)
            if coefficient != 0:
                self._coefficients[frozenset(monomial)] = coefficient

    # -- constructors -----------------------------------------------------------
    @classmethod
    def zero(cls) -> "MultilinearPolynomial":
        """The zero polynomial."""
        return cls()

    @classmethod
    def constant(cls, value: Fraction | int) -> "MultilinearPolynomial":
        """A constant polynomial."""
        return cls({frozenset(): Fraction(value)})

    @classmethod
    def variable(cls, fact: Fact) -> "MultilinearPolynomial":
        """The polynomial ``x_t`` for one fact."""
        return cls({frozenset({fact}): Fraction(1)})

    # -- inspection --------------------------------------------------------------
    @property
    def coefficients(self) -> Dict[Monomial, Fraction]:
        """A copy of the monomial → coefficient mapping."""
        return dict(self._coefficients)

    def coefficient(self, monomial: Iterable[Fact]) -> Fraction:
        """Coefficient of one monomial (0 when absent)."""
        return self._coefficients.get(frozenset(monomial), Fraction(0))

    @property
    def variables(self) -> FrozenSet[Fact]:
        """Facts whose variable occurs in some monomial with non-zero coefficient."""
        result: set[Fact] = set()
        for monomial in self._coefficients:
            result |= monomial
        return frozenset(result)

    def degree_in(self, fact: Fact) -> int:
        """Degree of the polynomial in the variable of ``fact`` (0 or 1)."""
        return 1 if any(fact in monomial for monomial in self._coefficients) else 0

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self._coefficients

    # -- algebra ------------------------------------------------------------------
    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        result = dict(self._coefficients)
        for monomial, coefficient in other._coefficients.items():
            result[monomial] = result.get(monomial, Fraction(0)) + coefficient
        return MultilinearPolynomial(result)

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return self + other.__neg__()

    def __neg__(self) -> "MultilinearPolynomial":
        return MultilinearPolynomial(
            {m: -c for m, c in self._coefficients.items()}
        )

    def __mul__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        """Product of two polynomials.

        The product of two multilinear polynomials is multilinear only
        when they share no variables; in general squared variables are
        *not* reduced (``x·x`` stays degree 2 conceptually), but since we
        store monomials as sets, a shared variable would silently be
        idempotent.  To avoid silent mistakes we raise when the operands
        share variables — which is exactly the situation Proposition
        4.13(3) excludes.
        """
        shared = self.variables & other.variables
        if shared:
            raise ProbabilityError(
                "refusing to multiply polynomials sharing variables "
                f"({len(shared)} shared facts); multilinearity would be violated"
            )
        result: Dict[Monomial, Fraction] = {}
        for m1, c1 in self._coefficients.items():
            for m2, c2 in other._coefficients.items():
                monomial = m1 | m2
                result[monomial] = result.get(monomial, Fraction(0)) + c1 * c2
        return MultilinearPolynomial(result)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultilinearPolynomial):
            return self._coefficients == other._coefficients
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coefficients.items()))

    # -- evaluation and specialisation ---------------------------------------------
    def evaluate(self, assignment: Mapping[Fact, Fraction | float | int]) -> Fraction:
        """Evaluate the polynomial at the given tuple probabilities."""
        total = Fraction(0)
        for monomial, coefficient in self._coefficients.items():
            term = coefficient
            for fact in monomial:
                if fact not in assignment:
                    raise ProbabilityError(f"no value supplied for variable {fact!r}")
                term *= Fraction(assignment[fact])
            total += term
        return total

    def substitute(self, fact: Fact, value: Fraction | int) -> "MultilinearPolynomial":
        """Set one variable to a constant (Shannon expansion helper)."""
        value = Fraction(value)
        result: Dict[Monomial, Fraction] = {}
        for monomial, coefficient in self._coefficients.items():
            if fact in monomial:
                reduced = frozenset(monomial - {fact})
                result[reduced] = result.get(reduced, Fraction(0)) + coefficient * value
            else:
                result[monomial] = result.get(monomial, Fraction(0)) + coefficient
        return MultilinearPolynomial(result)

    def restricted_coefficient_of(self, fact: Fact) -> "MultilinearPolynomial":
        """The polynomial ``∂f/∂x_t``: the coefficient of ``x_t`` as a polynomial
        in the remaining variables (used to check Proposition 4.13(4))."""
        result: Dict[Monomial, Fraction] = {}
        for monomial, coefficient in self._coefficients.items():
            if fact in monomial:
                reduced = frozenset(monomial - {fact})
                result[reduced] = result.get(reduced, Fraction(0)) + coefficient
        return MultilinearPolynomial(result)

    # -- rendering -------------------------------------------------------------------
    def pretty(self, names: Optional[Mapping[Fact, str]] = None) -> str:
        """Render the polynomial with short variable names (``x1``, ``x2``, ...)."""
        if names is None:
            ordered = sorted(self.variables)
            names = {fact: f"x{i + 1}" for i, fact in enumerate(ordered)}
        terms: List[str] = []
        for monomial in sorted(self._coefficients, key=lambda m: (len(m), sorted(map(repr, m)))):
            coefficient = self._coefficients[monomial]
            factors = [names[f] for f in sorted(monomial)]
            if not factors:
                terms.append(str(coefficient))
            elif coefficient == 1:
                terms.append("*".join(factors))
            elif coefficient == -1:
                terms.append("-" + "*".join(factors))
            else:
                terms.append(f"{coefficient}*" + "*".join(factors))
        if not terms:
            return "0"
        rendered = " + ".join(terms)
        return rendered.replace("+ -", "- ")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultilinearPolynomial({self.pretty()})"


def truth_table(
    query: ConjunctiveQuery, facts: Sequence[Fact]
) -> List[bool]:
    """Truth value of the boolean query on every subset of ``facts``.

    Entry ``i`` corresponds to the subset whose bitmask is ``i`` with
    bit ``j`` meaning ``facts[j]`` is present.  Computed through the
    compiled kernel: one satisfying-assignment enumeration on the full
    support plus a subset zeta transform, instead of ``2^n`` backtracking
    evaluations.
    """
    n = len(facts)
    size = 1 << n
    bits = compile_query_table(query, facts).true_bits
    # Unpack via one to_bytes pass: per-mask `bits >> mask & 1` would
    # re-copy the whole 2^n-bit integer for every mask (Θ(4^n) traffic).
    data = bits.to_bytes((size + 7) >> 3, "little")
    table: List[bool] = []
    for byte in data:
        for bit in range(8):
            table.append(bool(byte >> bit & 1))
    del table[size:]
    return table


def query_polynomial(
    query: ConjunctiveQuery,
    facts: Sequence[Fact],
    max_facts: int = DEFAULT_MAX_FACTS,
) -> MultilinearPolynomial:
    """Build ``f_Q`` over the given facts by a subset Möbius transform.

    The multilinear extension of a boolean function ``Q`` over subsets of
    ``facts`` has monomial coefficients

        c_T = Σ_{I ⊆ T} (−1)^{|T| − |I|} [Q(I)]

    which are computed for all ``T`` simultaneously with an in-place
    Möbius transform of the truth table in ``O(n·2^n)`` time.
    """
    facts = list(facts)
    n = len(facts)
    if n > max_facts:
        raise IntractableAnalysisError(
            f"polynomial construction over {n} facts requires 2^{n} evaluations; "
            f"exceeds the configured bound ({max_facts})",
            size_estimate=2**n,
        )
    values = [Fraction(1) if truth else Fraction(0) for truth in truth_table(query, facts)]
    # Subset Möbius transform: after processing bit j, values[mask] holds
    # Σ_{I ⊆ mask, agreeing outside bit j's processed prefix} (−1)^{...} Q(I).
    for j in range(n):
        bit = 1 << j
        for mask in range(1 << n):
            if mask & bit:
                values[mask] = values[mask] - values[mask ^ bit]
    coefficients: Dict[Monomial, Fraction] = {}
    for mask in range(1 << n):
        if values[mask] != 0:
            monomial = frozenset(facts[j] for j in range(n) if mask >> j & 1)
            coefficients[monomial] = values[mask]
    return MultilinearPolynomial(coefficients)
