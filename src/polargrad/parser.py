"""Recursive-descent parser for polynomial input.

Grammar:

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := base ('^' uint)?
    base       := rational | variable | '(' expression ')'
    rational   := uint ('/' uint)?

Implicit multiplication is rejected.  The optional leading sign and the
``uint '/' uint`` coefficient form are strict extensions of the base grammar
so that every canonically printed polynomial parses back to itself.

Every subexpression is a plain term dict {monomial: coefficient}, with int
coefficients until a ``a/b`` constant brings in a ``Fraction``, and the
``Poly`` is built once, at the end.  A power of a single term, such as
``x^4`` or ``3*y^2`` in parentheses, is one multiply of its exponents; any
other power is repeated multiplication by its base.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .poly import Poly


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    pass


_OPS = set("+-*^()/")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Each subexpression is a term dict {monomial: coefficient} with no zero
    coefficient, an int or a Fraction."""

    def __init__(self, text: str, vars: tuple[str, ...], max_degree: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars
        self.max_degree = max_degree
        self.var_index = {name: i for i, name in enumerate(vars)}
        self.one = (0,) * len(vars)

    def check_degree(self, degree: int) -> None:
        if self.max_degree is not None and degree > self.max_degree:
            raise ValueError(f"input degree {degree} exceeds the cap {self.max_degree}")

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, where = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", where)
        return self.advance()

    def parse(self) -> Poly:
        result = self.expression()
        kind, value, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", where)
        result = {m: c if type(c) is Fraction else Fraction(c) for m, c in result.items()}
        return Poly.from_clean(self.vars, result)

    def expression(self) -> dict:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.advance()
        acc = self.term()
        if negate:
            acc = self.add({}, acc, -1)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                acc = self.add(acc, self.term(), -1 if value == "-" else 1)
            else:
                return acc

    def term(self) -> dict:
        acc = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                rhs = self.factor()
                if self.max_degree is not None:
                    self.check_degree(_degree(acc) + _degree(rhs))
                acc = self.mul(acc, rhs)
            else:
                return acc

    def factor(self) -> dict:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, where = self.peek()
            if kind != "int":
                raise ParseError("exponent must be an unsigned integer", where)
            self.advance()
            n = int(value)
            if self.max_degree is not None:
                self.check_degree(n * _degree(base))
            if n == 0:
                return {self.one: 1}
            if len(base) == 1:  # one term: one exponent multiply
                ((m, c),) = base.items()
                return {tuple([e * n for e in m]): c**n}
            power = base
            for _ in range(n - 1):
                power = self.mul(power, base)
            return power
        return base

    def base(self) -> dict:
        kind, value, where = self.advance()
        if kind == "int":
            num = int(value)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.advance()
                kind3, value3, where3 = self.peek()
                if kind3 != "int":
                    raise ParseError("denominator must be an unsigned integer", where3)
                self.advance()
                den = int(value3)
                if den == 0:
                    raise ParseError("zero denominator", where3)
                c = Fraction(num, den)
            else:
                c = num
            return {self.one: c} if c else {}
        if kind == "name":
            idx = self.var_index.get(value)
            if idx is None:
                raise UnknownVariable(f"unknown variable {value!r}", where)
            self.check_degree(1)
            return {self.one[:idx] + (1,) + self.one[idx + 1 :]: 1}
        if kind == "op" and value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a number, variable or parenthesis", where)

    def add(self, acc: dict, terms: dict, sign: int) -> dict:
        """acc + sign * terms, in place in acc, which no other expression holds."""
        for m, c in terms.items():
            s = acc.get(m, 0) + sign * c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return acc

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}


def _degree(terms: dict) -> int:
    """Total degree of a term dict; -1 for no terms."""
    return max(map(sum, terms), default=-1)


def parse_poly(text: str, vars, *, max_degree: int | None = None) -> Poly:
    """Parse `text` into a polynomial in the given ordered variables.  With
    `max_degree` set, a ValueError is raised before any variable, product
    (deg a + deg b) or power (n * deg a) above that degree is built; None
    means no cap."""
    names = tuple(vars)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _Parser(text, names, max_degree).parse()
