"""A parser for datalog-style conjunctive query strings.

The concrete syntax mirrors the paper's notation::

    V2(n, d)   :- Emp(n, d, p)
    S()        :- Employee('Jane', 'Shipping', 1234567)
    Q(x)       :- R1(x, 'a', y), R2(y, 'b', 'c'), R3(x, -, -), x < y, y != 'c'
    V4(n)      :- Emp(n, Mgmt, p)

Term conventions
----------------
* identifiers starting with a lowercase letter are **variables** (``x``, ``name``),
* ``-`` and ``_`` denote **anonymous variables** (each occurrence distinct),
* quoted strings (``'a'``, ``"Jane"``) are **constants**,
* numeric literals (``42``, ``3.5``) are **constants**,
* identifiers starting with an uppercase letter are **constants** whose value
  is the identifier itself (``Mgmt``, ``HR``), matching the paper's examples.

``:-`` separates the head from the body; body items are relational atoms
or comparisons (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``) separated by
commas.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from ..exceptions import ParseError
from .atoms import COMPARISON_OPS, Atom, Comparison
from .query import ConjunctiveQuery
from .terms import Constant, Term, Variable

__all__ = ["parse_query", "parse_atom", "parse_term", "q"]

_TOKEN_RE = re.compile(
    r"""
    \s*(
        :-                          |   # head/body separator
        <=|>=|!=|=|<|>              |   # comparison operators
        [(),]                       |   # punctuation
        '(?:[^'\\]|\\.)*'           |   # single-quoted constant
        "(?:[^"\\]|\\.)*"           |   # double-quoted constant
        -?\d+\.\d+                  |   # float literal
        -?\d+                       |   # int literal
        [A-Za-z_][A-Za-z0-9_]*      |   # identifier
        -                               # anonymous variable
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character at position {pos}: {text[pos:pos + 10]!r}")
        token = match.group(1)
        tokens.append(token)
        pos = match.end()
    return tokens


class _TokenStream:
    """A tiny cursor over the token list with error reporting."""

    def __init__(self, tokens: Sequence[str], source: str):
        self._tokens = list(tokens)
        self._source = source
        self._index = 0
        self._anonymous = 0

    def anonymous(self) -> Variable:
        """The next anonymous variable: ``_1``, ``_2``, ... per query.

        Names the query spells itself are skipped, so ``R(x, -, _1)``
        keeps two distinct variables, and parsing one text twice yields
        equal queries.
        """
        while True:
            self._anonymous += 1
            variable = Variable(f"_{self._anonymous}")
            if variable.name not in self._tokens:
                return variable

    def peek(self) -> Optional[str]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of query in {self._source!r}")
        self._index += 1
        return token

    def expect(self, expected: str) -> str:
        token = self.next()
        if token != expected:
            raise ParseError(
                f"expected {expected!r} but found {token!r} in {self._source!r}"
            )
        return token

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)


def _term_from_token(token: str, stream: _TokenStream) -> Term:
    if token in ("-", "_"):
        return stream.anonymous()
    if token.startswith(("'", '"')):
        return Constant(token[1:-1])
    if re.fullmatch(r"-?\d+", token):
        return Constant(int(token))
    if re.fullmatch(r"-?\d+\.\d+", token):
        return Constant(float(token))
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
        if token[0].isupper():
            return Constant(token)
        return Variable(token)
    raise ParseError(f"cannot interpret term token {token!r}")


def parse_term(text: str) -> Term:
    """Parse a single term (variable or constant)."""
    tokens = _tokenize(text.strip())
    if len(tokens) != 1:
        raise ParseError(f"expected a single term, got {text!r}")
    return _term_from_token(tokens[0], _TokenStream(tokens, text))


def _parse_term_list(stream: _TokenStream) -> Tuple[Term, ...]:
    terms: List[Term] = []
    if stream.peek() == ")":
        return ()
    while True:
        terms.append(_term_from_token(stream.next(), stream))
        token = stream.peek()
        if token == ",":
            stream.next()
            continue
        return tuple(terms)


def parse_atom(text: str) -> Atom:
    """Parse a single relational atom like ``R(x, 'a', -)``."""
    stream = _TokenStream(_tokenize(text.strip()), text)
    atom = _parse_atom(stream)
    if not stream.at_end():
        raise ParseError(f"trailing input after atom in {text!r}")
    return atom


def _parse_atom(stream: _TokenStream) -> Atom:
    relation = stream.next()
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", relation):
        raise ParseError(f"invalid relation name {relation!r}")
    stream.expect("(")
    terms = _parse_term_list(stream)
    stream.expect(")")
    return Atom(relation, terms)


def _parse_body_item(stream: _TokenStream) -> Atom | Comparison:
    # Look ahead: an atom is `name (`; a comparison is `term op term`.
    first = stream.next()
    following = stream.peek()
    if following == "(" and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", first):
        stream.expect("(")
        terms = _parse_term_list(stream)
        stream.expect(")")
        return Atom(first, terms)
    op = stream.next()
    if op not in COMPARISON_OPS:
        raise ParseError(f"expected a comparison operator, found {op!r}")
    right = stream.next()
    return Comparison(_term_from_token(first, stream), op, _term_from_token(right, stream))


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a full conjunctive query in datalog notation.

    Examples
    --------
    >>> parse_query("V(n, d) :- Emp(n, d, p)")
    V(n, d) :- Emp(n, d, p)
    >>> parse_query("S() :- R('a', x), R(x, x)").is_boolean
    True
    """
    stream = _TokenStream(_tokenize(text.strip()), text)
    name = stream.next()
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ParseError(f"invalid query name {name!r}")
    stream.expect("(")
    head = _parse_term_list(stream)
    stream.expect(")")
    stream.expect(":-")
    body: List[Atom] = []
    comparisons: List[Comparison] = []
    while True:
        item = _parse_body_item(stream)
        if isinstance(item, Atom):
            body.append(item)
        else:
            comparisons.append(item)
        if stream.peek() == ",":
            stream.next()
            continue
        break
    if not stream.at_end():
        raise ParseError(f"trailing input after query body in {text!r}")
    return ConjunctiveQuery(head, body, comparisons, name=name)


def q(text: str) -> ConjunctiveQuery:
    """Shorthand alias for :func:`parse_query` used throughout examples."""
    return parse_query(text)
