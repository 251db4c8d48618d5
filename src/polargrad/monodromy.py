"""Characteristic polynomials of monodromy operators in factored form.

A divisor holds the exponent map of a product over (t^m - 1)^{e_m}.  Two
different products act on divisors:

* `divisor_mul` is the join product, extended bilinearly from
  (t^a - 1) * (t^b - 1) -> gcd(a,b) copies of (t^{lcm(a,b)} - 1).  It computes
  the divisor of a sum of singularities in separated variables, which is how
  the Brieskorn-Pham and weighted-homogeneous formulas are assembled.
* `charpoly_product` multiplies the represented polynomials, i.e. adds
  exponent maps; it assembles the global divisor from local ones.

Negative exponents and rational coefficients are allowed in intermediates
(the Fermat closed form needs them) and rejected at the exposure boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .arith import divisors as all_divisors


class NonIntegralResult(Exception):
    pass


class KNotDividingD(Exception):
    pass


class CycDivisor:
    """Finite map m -> e_m representing the product of (t^m - 1)^{e_m}."""

    __slots__ = ("exps",)

    def __init__(self, exps: Mapping[int, object] = ()):
        clean: dict[int, Fraction] = {}
        items = exps.items() if isinstance(exps, Mapping) else exps
        for m, e in items:
            if m < 1:
                raise ValueError("factor orders must be positive integers")
            e = Fraction(e)
            if e:
                clean[int(m)] = clean.get(int(m), Fraction(0)) + e
                if not clean[int(m)]:
                    del clean[int(m)]
        object.__setattr__(self, "exps", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CycDivisor is immutable")

    # -------------------------------------------------------------- algebra

    def __add__(self, other: "CycDivisor") -> "CycDivisor":
        out = dict(self.exps)
        for m, e in other.exps.items():
            out[m] = out.get(m, Fraction(0)) + e
        return CycDivisor(out)

    def __neg__(self) -> "CycDivisor":
        return CycDivisor({m: -e for m, e in self.exps.items()})

    def __sub__(self, other: "CycDivisor") -> "CycDivisor":
        return self + (-other)

    def scale(self, c) -> "CycDivisor":
        c = Fraction(c)
        return CycDivisor({m: c * e for m, e in self.exps.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycDivisor):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return hash(frozenset(self.exps.items()))

    def __repr__(self) -> str:
        return f"CycDivisor({factored_string(self)!r})"

    # ------------------------------------------------------------ exposure

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.exps.values())

    def integral_exponents(self) -> dict[int, int]:
        if not self.is_integral():
            raise NonIntegralResult(f"non-integer exponents in {self.exps}")
        return {m: int(e) for m, e in sorted(self.exps.items())}


def lam(m: int) -> CycDivisor:
    """The divisor of t^m - 1."""
    return CycDivisor({m: 1})


def one() -> CycDivisor:
    """The divisor of the constant polynomial 1."""
    return CycDivisor()


def divisor_mul(d1: CycDivisor, d2: CycDivisor) -> CycDivisor:
    """Join product, bilinear over the rule
    (t^a - 1)(t^b - 1) -> gcd(a,b) * (t^{lcm(a,b)} - 1)."""
    out: dict[int, Fraction] = {}
    for a, ea in d1.exps.items():
        for b, eb in d2.exps.items():
            g = gcd(a, b)
            m = a * b // g
            out[m] = out.get(m, Fraction(0)) + ea * eb * g
    return CycDivisor(out)


def charpoly_product(divs: Iterable[CycDivisor]) -> CycDivisor:
    """Product of the represented polynomials: exponent-wise sum."""
    acc = one()
    for d in divs:
        acc = acc + d
    return acc


def divisor_degree(d: CycDivisor) -> Fraction | int:
    total = sum((m * e for m, e in d.exps.items()), Fraction(0))
    return int(total) if total.denominator == 1 else total


def mult_at_order(d: CycDivisor, k: int) -> int:
    """Multiplicity of any primitive k-th root of unity as a root."""
    if k < 1:
        raise ValueError("order must be positive")
    exps = d.integral_exponents()
    return sum(e for m, e in exps.items() if m % k == 0)


def mu0_from_charpoly(d: CycDivisor) -> int:
    """Multiplicity of the eigenvalue 1."""
    return mult_at_order(d, 1)


def support_orders(d: CycDivisor) -> list[int]:
    """All k at which mult_at_order can be nonzero: divisors of the support."""
    ks: set[int] = set()
    for m in d.exps:
        ks.update(all_divisors(m))
    return sorted(ks)


def validate_exposed(d: CycDivisor) -> CycDivisor:
    """Check integrality and non-negative multiplicity at every root."""
    exps = d.integral_exponents()
    for k in support_orders(d):
        mult = sum(e for m, e in exps.items() if m % k == 0)  # `mult_at_order`
        if mult < 0:
            raise NonIntegralResult(f"negative multiplicity {mult} at order {k}")
    return d


# ----------------------------------------------------------------- formulas


def bp_charpoly(exponents: Iterable[int]) -> CycDivisor:
    """Divisor for a sum of pure powers x_i^{a_i}: the join product of the
    factors (t^{a_i} - 1) - (t - 1)-unit, one per variable."""
    exponents = list(exponents)
    if any(a < 2 for a in exponents):
        raise ValueError("pure-power exponents must be at least 2")
    # the `divisor_mul` fold on plain {order: int} maps: every exponent stays
    # an integer, and one CycDivisor is built at the end
    acc = {1: 1}
    for a in exponents:
        out: dict[int, int] = {}
        for m, e in acc.items():
            g = gcd(m, a)  # (t^m - 1) joined with (t^a - 1) - (t - 1)
            out[m * a // g] = out.get(m * a // g, 0) + e * g
            out[m] = out.get(m, 0) - e
        acc = out
    return validate_exposed(CycDivisor(acc))


def wh_charpoly(weights: Iterable) -> CycDivisor:
    """Divisor for an isolated weighted-homogeneous singularity with rational
    weights w_i = u_i / v_i in (0, 1): join product of Lambda_{v_i}/u_i - 1.
    Raises NonIntegralResult when the weights are not realizable."""
    ws = [Fraction(w) for w in weights]
    if any(not (0 < w < 1) for w in ws):
        raise ValueError("weights must lie strictly between 0 and 1")
    acc = lam(1)
    for w in ws:
        u, v = w.numerator, w.denominator
        factor = lam(v).scale(Fraction(1, u)) - lam(1)
        acc = divisor_mul(acc, factor)
    if not acc.is_integral():
        raise NonIntegralResult(f"weights {ws} yield a non-integral divisor")
    return validate_exposed(acc)


def fermat_charpoly(d: int, n: int) -> CycDivisor:
    """Closed form for the pure Fermat germ x_1^d + ... + x_n^d:
    exponent chi/d on (t^d - 1) and -1 on (t - 1), both twisted by the sign
    (-1)^(n-1), where chi = 1 + (-1)^(n-1) (d-1)^n."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    sign = (-1) ** (n - 1)
    chi = 1 + sign * (d - 1) ** n
    if chi % d:
        raise NonIntegralResult(f"chi = {chi} is not divisible by d = {d}")
    return validate_exposed(CycDivisor({d: sign * (chi // d)}) + CycDivisor({1: -sign}))


def primitive_betti(d: int, m: int) -> int:
    """Primitive middle Betti number of a smooth degree-d hypersurface of
    dimension m, via b0(0) = d - 1 and b0(m) = (d-1)^(m+1) - b0(m-1)."""
    if d < 2 or m < 0:
        raise ValueError("need d >= 2 and m >= 0")
    b = d - 1
    for k in range(1, m + 1):
        b = (d - 1) ** (k + 1) - b
    return b


def fermat_mult_reference(d: int, n: int, k: int) -> int:
    """Reference multiplicity of an order-k eigenvalue of the Fermat germ in
    n variables: the primitive Betti number of the dimension-(n-2) smooth
    hypersurface, shifted by (-1)^(n-1) away from the eigenvalue 1."""
    if n < 2:
        raise ValueError("reference multiplicities need n >= 2")
    if d % k:
        raise KNotDividingD(f"{k} does not divide {d}")
    base = primitive_betti(d, n - 2)
    if k == 1:
        return base
    return base + (-1) ** (n - 1)


# ------------------------------------------------------------------- output


def factored_string(d: CycDivisor) -> str:
    if not d.exps:
        return "1"
    parts = []
    for m in sorted(d.exps, reverse=True):
        e = d.exps[m]
        e_str = str(int(e)) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        base = f"(t^{m}-1)" if m > 1 else "(t-1)"
        parts.append(f"{base}^{e_str}")
    return "*".join(parts)


def to_json_map(d: CycDivisor) -> dict[str, int]:
    return {str(m): e for m, e in d.integral_exponents().items()}
