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
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Domain, Poly, QQ


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
    def __init__(self, text: str, vars: tuple[str, ...], domain: Domain, max_degree: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars
        self.domain = domain
        self.max_degree = max_degree
        self.var_index = {name: i for i, name in enumerate(vars)}

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
        return result

    def expression(self) -> Poly:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.advance()
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                acc = acc - rhs if value == "-" else acc + rhs
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                rhs = self.factor()
                if self.max_degree is not None:
                    self.check_degree(acc.degree() + rhs.degree())
                acc = acc * rhs
            else:
                return acc

    def factor(self) -> Poly:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, where = self.peek()
            if kind != "int":
                raise ParseError("exponent must be an unsigned integer", where)
            self.advance()
            if self.max_degree is not None:
                self.check_degree(int(value) * base.degree())
            return base ** int(value)
        return base

    def base(self) -> Poly:
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
                return Poly.constant(self.vars, Fraction(num, den), self.domain)
            return Poly.constant(self.vars, num, self.domain)
        if kind == "name":
            idx = self.var_index.get(value)
            if idx is None:
                raise UnknownVariable(f"unknown variable {value!r}", where)
            self.check_degree(1)
            return Poly.variable(self.vars, idx, self.domain)
        if kind == "op" and value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a number, variable or parenthesis", where)


def parse_poly(text: str, vars, domain: Domain = QQ, max_degree: int | None = None) -> Poly:
    """Parse `text` into a polynomial in the given ordered variables.  With
    `max_degree` set, a ValueError is raised before any variable, product
    (deg a + deg b) or power (n * deg a) above that degree is built; None
    means no cap."""
    names = tuple(vars)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _Parser(text, names, domain, max_degree).parse()
