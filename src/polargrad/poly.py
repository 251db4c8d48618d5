"""Sparse multivariate polynomials with exact coefficients.

Every coefficient is a rational number, a stdlib ``Fraction`` (always in
lowest terms with positive denominator).  A coefficient given to `Poly` may
also be an ``int``, which becomes one; anything else is refused
(`_coerce`).  All values are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .rng import SplitMix64

Mono = tuple[int, ...]


class PolyError(Exception):
    pass


class ZeroPolynomial(PolyError):
    pass


class NotHomogeneous(PolyError):
    def __init__(self, message: str, offending: tuple[Mono, Mono] | None = None):
        super().__init__(message)
        self.offending = offending


class SingularMatrix(PolyError):
    pass


class DomainMismatch(PolyError):
    """Polynomials or ideals over different variable lists."""


class DegeneratePencil(PolyError):
    pass


_ZERO = Fraction(0)  # immutable, so shared by every call


def _coerce(value) -> Fraction:
    """`value` as a rational coefficient: a `Fraction` as it is, an `int`
    made one; anything else, such as a float or a string, is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} into Q")


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b, assuming b | a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(m: Mono) -> int:
    return sum(m)


class Poly:
    """Immutable sparse polynomial: variable list and term map.

    `_grad` holds the tuple of partial derivatives once `gradient` has built
    it; it takes no part in equality or hashing."""

    __slots__ = ("vars", "terms", "_grad")

    def __init__(
        self,
        vars: Sequence[str],
        terms: Mapping[Mono, object] | Iterable[tuple[Mono, object]] = (),
    ):
        clean: dict[Mono, Fraction] = {}
        vars = tuple(vars)
        items = terms.items() if isinstance(terms, Mapping) else terms
        n = len(vars)
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != n:
                raise PolyError(f"monomial {mono} has wrong length for {vars}")
            if any(e < 0 for e in mono):
                raise PolyError(f"negative exponent in {mono}")
            c = _coerce(coeff)
            if mono in clean:
                c += clean[mono]
            if c:
                clean[mono] = c
            else:
                clean.pop(mono, None)
        self._set(vars, clean)

    def _set(self, vars: tuple[str, ...], terms: dict[Mono, Fraction]) -> None:
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_grad", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # ---------------------------------------------------------------- basics

    @classmethod
    def from_clean(cls, vars: tuple[str, ...], terms: dict[Mono, Fraction]) -> "Poly":
        """`terms` taken as they are, unchecked: tuple monomials of the right
        length and nonzero `Fraction` coefficients."""
        p = object.__new__(cls)
        p._set(vars, terms)
        return p

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls.from_clean(tuple(vars), {})

    @classmethod
    def constant(cls, vars: Sequence[str], c) -> "Poly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: Sequence[str], i: int) -> "Poly":
        mono = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def _check_compatible(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise DomainMismatch(f"incompatible polynomials: {self.vars} vs {other.vars}")

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly.from_clean(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly.from_clean(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly.from_clean(self.vars, out)

    def scale(self, c) -> "Poly":
        c = _coerce(c)
        if not c:
            return Poly.zero(self.vars)
        return Poly.from_clean(self.vars, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, c) -> "Poly":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)!r}, vars={self.vars})"

    # -------------------------------------------------------------- calculus

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < len(self.vars):
            raise IndexError(f"variable index {i} out of range")
        # m -> m / x_i is injective on the terms with x_i in them, so nothing
        # collects, and c * e is never 0
        out = {
            m[:i] + (e - 1,) + m[i + 1 :]: c * e
            for m, c in self.terms.items()
            if (e := m[i])
        }
        return Poly.from_clean(self.vars, out)

    def evaluate(self, point: Sequence) -> Fraction:
        """Evaluate at a point of ints or `Fraction`s."""
        if len(point) != len(self.vars):
            raise ValueError("point has wrong length")
        pt = [_coerce(x) for x in point]
        total = _ZERO
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                for _ in range(e):
                    v = v * x
            total = total + v
        return total

    def subs(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute images[i] for variable i; images share a common ring."""
        if len(images) != len(self.vars):
            raise ValueError("need one image per variable")
        target = images[0]
        for im in images:
            target._check_compatible(im)
        # cache successive powers of each image
        powers: list[list[Poly]] = [[Poly.constant(target.vars, 1)] for _ in images]
        out = Poly.zero(target.vars)
        for m, c in sorted(self.terms.items()):
            term = Poly.constant(target.vars, c)
            for i, e in enumerate(m):
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * images[i])
                term = term * cache[e]
            out = out + term
        return out


# ------------------------------------------------------------------ helpers


def gradient(f: Poly) -> tuple[Poly, ...]:
    """All partial derivatives, in variable order: built on the first call
    and kept on f (`Poly._grad`), so every later call returns the same
    tuple."""
    grad = f._grad
    if grad is None:
        grad = tuple([f.partial(i) for i in range(len(f.vars))])
        object.__setattr__(f, "_grad", grad)
    return grad


def homogeneous_degree(f: Poly) -> int:
    """Common total degree of all terms; errors when f is 0 or mixed."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no homogeneous degree")
    degrees: dict[int, Mono] = {}
    for m in f.terms:
        degrees.setdefault(mono_degree(m), m)
        if len(degrees) > 1:
            (d1, m1), (d2, m2) = sorted(degrees.items())[:2]
            raise NotHomogeneous(
                f"terms of degrees {d1} and {d2} present", offending=(m1, m2)
            )
    return next(iter(degrees))


def is_homogeneous(f: Poly) -> bool:
    if f.is_zero():
        return True
    return len({mono_degree(m) for m in f.terms}) == 1


def det_fraction(M: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix via fraction Gaussian
    elimination; its entries are ints or `Fraction`s (`_coerce`)."""
    n = len(M)
    rows = [[_coerce(x) for x in row] for row in M]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def substitute_linear(f: Poly, M: Sequence[Sequence]) -> Poly:
    """f composed with the linear map x -> M x; M must be invertible over Q,
    its entries ints or `Fraction`s (`_coerce`)."""
    n = len(f.vars)
    if len(M) != n or any(len(row) != n for row in M):
        raise PolyError("matrix size does not match the variable count")
    if det_fraction(M) == 0:
        raise SingularMatrix("coordinate change matrix is singular")
    images = []
    for i in range(n):
        img = Poly.zero(f.vars)
        for j, a in enumerate(M[i]):
            if a:
                img = img + Poly.variable(f.vars, j).scale(a)
        images.append(img)
    return f.subs(images)


def dehomogenize(f: Poly, i: int) -> Poly:
    """Set x_i = 1 and drop the variable from the ring."""
    if not 0 <= i < len(f.vars):
        raise IndexError(f"variable index {i} out of range")
    new_vars = f.vars[:i] + f.vars[i + 1 :]
    out: dict[Mono, Fraction] = {}
    for m, c in f.terms.items():
        nm = m[:i] + m[i + 1 :]
        s = out.get(nm, _ZERO) + c
        if s:
            out[nm] = s
        else:
            out.pop(nm, None)
    return Poly(new_vars, out)


def homogeneous_parts(f: Poly) -> list[Poly]:
    """Graded components of f, by increasing degree."""
    buckets: dict[int, dict[Mono, Fraction]] = {}
    for m, c in f.terms.items():
        buckets.setdefault(mono_degree(m), {})[m] = c
    return [Poly(f.vars, terms) for _, terms in sorted(buckets.items())]


# -------------------------------------------------------------- text output


def _grevlex_key(m: Mono):
    return (sum(m), tuple([-e for e in reversed(m)]))


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def poly_text(f: Poly) -> str:
    """Canonical text form; `parse_poly(poly_text(f), f.vars)` returns f."""
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for m in sorted(f.terms, key=_grevlex_key, reverse=True):
        c = f.terms[m]
        factors = []
        for name, e in zip(f.vars, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _format_coeff(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# -------------------------------------------------- projective rational point


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of P^n with exact rational coordinates.

    Normalized so the last nonzero coordinate equals 1; normalization is
    idempotent and makes equality and hashing well defined.  Coordinates are
    ints or `Fraction`s (`_coerce`).
    """

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence):
        cs = [_coerce(c) for c in coords]
        last = next((i for i in range(len(cs) - 1, -1, -1) if cs[i] != 0), None)
        if last is None:
            raise ValueError("projective point cannot be all zero")
        scale = cs[last]
        object.__setattr__(self, "coords", tuple(c / scale for c in cs))

    def __str__(self) -> str:
        return "(" + " : ".join(_format_coeff(c) for c in self.coords) + ")"

    def chart(self) -> int:
        """Index of the last nonzero (== 1) coordinate."""
        return max(i for i, c in enumerate(self.coords) if c != 0)

    def affine_coords(self) -> tuple[Fraction, ...]:
        """Coordinates in the standard chart `self.chart()`."""
        c = self.chart()
        return self.coords[:c] + self.coords[c + 1 :]


# -------------------------------------------------------- reducedness probe


class Reducedness(Enum):
    PROBABLY_REDUCED = "probably_reduced"
    NOT_REDUCED = "not_reduced"


def line_restriction(f: Poly, base: Sequence[Fraction], direction: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients of t^k of f(base + t*direction), ascending in k."""
    n = len(f.vars)
    tpoly_vars = ("t",)
    images = []
    for i in range(n):
        img = Poly.constant(tpoly_vars, Fraction(base[i]))
        img = img + Poly.variable(tpoly_vars, 0).scale(Fraction(direction[i]))
        images.append(img)
    g = f.subs(images)
    deg = g.degree()
    coeffs = [Fraction(0)] * (deg + 1 if deg >= 0 else 0)
    for (e,), c in g.terms.items():
        coeffs[e] = c
    return coeffs


def _univar_gcd_degree(a: list[Fraction], b: list[Fraction]) -> int:
    """Degree of gcd of two univariate rational polynomials."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(list(a)), trim(list(b))
    while b:
        # remainder of a mod b
        while len(a) >= len(b) and a:
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[i + shift] -= factor * bc
            trim(a)
        a, b = b, a
    return len(a) - 1


def squarefree_probe(f: Poly, trials: int = 8, seed: int = 0) -> Reducedness:
    """One-sided probabilistic reducedness check by random line restriction.

    Restricts f to random rational lines and tests the restriction for square
    factors via a univariate gcd.  Only full-degree restrictions count as
    squarefree evidence: a non-reduced f can never restrict to a squarefree
    polynomial of full degree, so NOT_REDUCED is never wrongly upgraded.
    A reduced f may still be reported NOT_REDUCED with small probability.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot probe the zero polynomial")
    d = homogeneous_degree(f)
    if d == 0:
        return Reducedness.PROBABLY_REDUCED
    rng = SplitMix64(seed + 0x51AB)
    n = len(f.vars)
    done = 0
    degenerate = 0
    while done < trials:
        base = rng.int_vector(n, -9, 9)
        direction = rng.nonzero_vector(n, -9, 9)
        coeffs = line_restriction(f, [Fraction(x) for x in base], [Fraction(x) for x in direction])
        done += 1
        if not coeffs:
            # line inside the zero locus; counted against the trial budget
            degenerate += 1
            continue
        if len(coeffs) - 1 < d:
            continue
        deriv = [coeffs[k] * k for k in range(1, len(coeffs))]
        if _univar_gcd_degree(coeffs, deriv) == 0:
            return Reducedness.PROBABLY_REDUCED
    if degenerate == trials:
        raise DegeneratePencil("every sampled line lies inside the zero locus")
    return Reducedness.NOT_REDUCED
