"""Terms of conjunctive queries: variables and constants.

The paper writes queries in datalog notation, e.g.::

    Q(x) :- R1(x, a, y), R2(y, b, c), R3(x, -, -), x < y, y != c

where lowercase letters from the end of the alphabet are variables,
``-`` marks an anonymous variable (each occurrence distinct), and other
symbols are constants.  :class:`Variable` and :class:`Constant` are the
two term kinds; anonymous variables are ordinary variables with
generated names (``_1``, ``_2``, ...), numbered per query by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = ["Variable", "Constant", "Term", "is_variable", "is_constant"]


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable, identified by name."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    """A constant value appearing in a query."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


#: A term is either a variable or a constant.
Term = Union[Variable, Constant]


def is_variable(term: Term) -> bool:
    """True when ``term`` is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """True when ``term`` is a :class:`Constant`."""
    return isinstance(term, Constant)
