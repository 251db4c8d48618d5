"""Hypersurface-level analysis: Jacobian ideals, singular points, local
Milnor numbers, generic affine frames and the critical-multiplicity split.

`frame_split` draws an affine frame, certified by one count: the critical
multiplicity dim k[y]/(grad h) of its affine model h is (d-1)^n; the frame
moves only the hyperplane at infinity, so h keeps small coefficients.  It
splits that multiplicity into mu_on = mu(V) and mu_off; `mu_summary` adds the
points step: rational singular points and their local Milnor numbers.  Every
singular point has mu_p >= 1, so the rational points are all of them exactly
when their mu_p sum to mu_on, and a larger sum is an inconsistency.

Each of these numbers is one `local_component_dim` on the frame's algebra
A = k[y]/(grad h), the local algebras of h at its critical points
(Stickelberger's theorem).  mu_on is the part of A on which h vanishes, mu_off
the rest, and mu_p the part on which the linear forms cutting out the point p
vanish: no other critical point of h lies on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import divisors as _divisors
from .groebner import (
    DEFAULT_CAPS,
    GREVLEX,
    LEX,
    Caps,
    Ideal,
    NotZeroDimensional,
    local_component_dim,
    projective_dim,
    quotient_vs_dim,
    # not called here: perfbench/tests/test_perfbench.py checks that the
    # tracer rebinds `saturate` in this namespace
    saturate,
)
from .monodromy import CycDivisor, divisor_degree, mu0_from_charpoly
from .poly import (
    Poly,
    ProjectivePoint,
    dehomogenize,
    gradient,
    homogeneous_degree,
    set_variable_zero,
)
from .rng import SplitMix64

MAX_FRAME_DRAWS = 32  # coordinate changes drawn per frame seed


class HypersurfaceError(Exception):
    pass


class NotACriticalPoint(HypersurfaceError):
    pass


class NotIsolated(HypersurfaceError):
    pass


class TransversalityNotFound(HypersurfaceError):
    pass


class InconsistentMu(HypersurfaceError):
    pass


def jacobian_ideal(f: Poly, caps: Caps = DEFAULT_CAPS) -> Ideal:
    """Ideal generated by all partial derivatives of f."""
    if f.is_zero() or f.degree() == 0:
        raise ValueError("need a non-constant polynomial")
    return Ideal(gradient(f), GREVLEX, vars=f.vars, domain=f.domain, caps=caps)


def has_isolated_singularities(f: Poly, caps: Caps = DEFAULT_CAPS) -> bool:
    """True when the projective singular scheme is empty or zero-dimensional."""
    homogeneous_degree(f)
    return projective_dim(jacobian_ideal(f, caps)) <= 0


# ----------------------------------------------------------- local invariants


def local_milnor_number(h: Poly, point, caps: Caps = DEFAULT_CAPS) -> int:
    """Milnor number of h at a critical point: the part of k[x]/(grad h) on
    which every x_i - point_i vanishes.  Needs finitely many critical points."""
    partials = gradient(h)
    for p in partials:
        if p.evaluate(point) != p.domain.zero():
            raise NotACriticalPoint(f"gradient of h does not vanish at {tuple(point)}")
    J = Ideal(partials, GREVLEX, vars=h.vars, domain=h.domain, caps=caps)
    forms = [
        Poly.variable(h.vars, i, h.domain) - Poly.constant(h.vars, a, h.domain)
        for i, a in enumerate(point)
    ]
    try:
        return local_component_dim(J, forms)
    except NotZeroDimensional as exc:
        raise NotIsolated("h has infinitely many critical points") from exc


# ------------------------------------------------------- rational point solve


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    roots: list[Fraction] = []
    low = 0
    while cs[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        cs = cs[low:]
    if len(cs) == 1:
        return roots
    from math import gcd as _gcd

    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // _gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in cs]
    content = 0
    for v in ints:
        content = _gcd(content, abs(v))
    ints = [v // content for v in ints]
    a0, ad = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(ad):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(roots)


def _substitute_last(p: Poly, value: Fraction) -> Poly:
    """Evaluate the last variable at `value` and drop it from the ring."""
    new_vars = p.vars[:-1]
    out: dict = {}
    dom = p.domain
    zero = dom.zero()
    for m, c in p.terms.items():
        coeff = dom.mul(c, dom.coerce(Fraction(value) ** m[-1]))
        nm = m[:-1]
        s = dom.add(out.get(nm, zero), coeff)
        if s == zero:
            out.pop(nm, None)
        else:
            out[nm] = s
    return Poly(new_vars, out, dom)


def rational_points_affine(
    gens: list[Poly], caps: Caps = DEFAULT_CAPS
) -> list[tuple[Fraction, ...]]:
    """All rational points of a zero-dimensional affine system, by lex
    triangularization, rational root extraction and back-substitution."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise NotZeroDimensional("zero ideal")
    vars = gens[0].vars
    k = len(vars)
    if k == 0:
        return [()]
    basis = Ideal(gens, LEX, caps=caps).basis
    if any(b.degree() == 0 for b in basis):
        return []
    pure_last = [
        b for b in basis if all(all(e == 0 for e in m[:-1]) for m in b.terms)
    ]
    if not pure_last:
        raise NotZeroDimensional("no univariate eliminant in the last variable")
    coeffs_len = max(m[-1] for m in pure_last[0].terms) + 1
    coeffs = [Fraction(0)] * coeffs_len
    for m, c in pure_last[0].terms.items():
        coeffs[m[-1]] = Fraction(c)
    candidates = _rational_roots(coeffs)
    points: list[tuple[Fraction, ...]] = []
    for r in candidates:
        if any(g.evaluate([Fraction(0)] * (k - 1) + [r]) != 0 for g in pure_last):
            continue
        if k == 1:
            if all(g.evaluate([r]) == 0 for g in gens):
                points.append((r,))
            continue
        reduced = [_substitute_last(b, r) for b in basis]
        reduced = [g for g in reduced if not g.is_zero()]
        if not reduced:
            raise NotZeroDimensional("fiber slice is not zero-dimensional")
        for sub in rational_points_affine(reduced, caps):
            points.append(sub + (r,))
    return sorted(points)


def _chart_restriction(gens, chart: int) -> list[Poly]:
    """Restrict homogeneous generators to the locally closed cell where
    x_chart = 1 and all later coordinates vanish; the result lives in the
    ring of the first `chart` variables."""
    out = []
    nv = len(gens[0].vars)
    for g in gens:
        h = g
        for j in range(chart + 1, nv):
            h = set_variable_zero(h, j)
        for j in range(nv - 1, chart - 1, -1):
            h = dehomogenize(h, j)
        out.append(h)
    return [h for h in out if not h.is_zero()]


def rational_singular_points(f: Poly, caps: Caps = DEFAULT_CAPS) -> list[ProjectivePoint]:
    """All rational singular points of V(f), sorted by coordinates.  Whether
    they are all of its singular points is decided by `mu_summary`."""
    J = jacobian_ideal(f, caps)
    pd = projective_dim(J)
    if pd == -1:
        return []
    if pd > 0:
        raise NotIsolated(f"singular locus has dimension {pd}")
    nv = len(f.vars)
    points: list[ProjectivePoint] = []
    for chart in range(nv - 1, -1, -1):
        cell_gens = _chart_restriction(J.gens, chart)
        if chart == 0:
            if not cell_gens:
                points.append(ProjectivePoint((1,) + (0,) * (nv - 1)))
            continue
        if not cell_gens:
            raise NotIsolated("singular scheme meets a coordinate cell in a curve")
        if any(g.degree() == 0 for g in cell_gens):
            continue
        for sol in rational_points_affine(cell_gens, caps):
            coords = sol + (Fraction(1),) + (Fraction(0),) * (nv - 1 - chart)
            points.append(ProjectivePoint(coords))
    points.sort(key=lambda p: p.coords)
    return points


# ------------------------------------------------------------- generic frame


@dataclass(frozen=True)
class AffineModel:
    """A certified affine chart for f: the frame M (a random first row a over
    the identity rows), the model h = f(My)|_{y_0=1} = f(a_0 + a_1 y_1 + ... +
    a_n y_n, y_1, ..., y_n) and its critical ideal (grad h), whose one Groebner
    basis certifies the frame and serves the split and every point."""

    f: Poly
    matrix: tuple[tuple[int, ...], ...]
    h: Poly
    seed: int
    draws: int
    critical_ideal: Ideal = field(compare=False)


def _frame_coordinates(f: Poly, row) -> list[Poly]:
    """x_0 = a_0 + a_1 y_1 + ... + a_n y_n and x_i = y_i: the coordinates of
    the frame with first row a, in the affine ring of y_1..y_n."""
    ys = [Poly.variable(f.vars[1:], i, f.domain) for i in range(len(f.vars) - 1)]
    ell = Poly.constant(f.vars[1:], row[0], f.domain)
    return [sum((y.scale(a) for y, a in zip(ys, row[1:])), ell)] + ys


def _affine_model(f: Poly, row) -> Poly:
    """h = f(ell, y_1, ..., y_n) for the frame with first row a: f grouped by
    the exponent of x_0 as sum_e x_0^e g_e, then h = sum_e ell^e g_e(y)."""
    ell = _frame_coordinates(f, row)[0]
    groups: dict[int, dict] = {}
    for m, c in f.terms.items():
        groups.setdefault(m[0], {})[m[1:]] = c
    powers = [Poly.constant(ell.vars, 1, f.domain)]
    while len(powers) <= max(groups, default=0):
        powers.append(powers[-1] * ell)
    parts = (powers[e] * Poly.from_clean(ell.vars, g, f.domain) for e, g in groups.items())
    return sum(parts, Poly.zero(ell.vars, f.domain))


def generic_frame(f: Poly, seed: int, caps: Caps = DEFAULT_CAPS) -> AffineModel:
    """Seeded random frame: a first row a in [-5, 5]^(n+1) with a_0 != 0 (det M
    = a_0) over the identity rows, so only the hyperplane at infinity moves,
    to x_0 = a_1 x_1 + ... + a_n x_n, and h keeps small coefficients.  A draw
    is accepted exactly when dim k[y]/(grad h) = (d-1)^n.  The partials of h
    homogenize to the partials of f_M = f(My) in y_1..y_n, whose common zeros
    on y_0 = 0 are the singular points of that hyperplane section; by Bezout
    the count reaches (d-1)^n exactly when there are none, so no critical
    multiplicity escapes to infinity.  A singular point of V(f) on y_0 = 0
    would be one of them, and every positive-dimensional singular locus meets
    that hyperplane, so a certified frame also proves the singularities
    isolated."""
    d = homogeneous_degree(f)
    nv = len(f.vars)
    identity = tuple(tuple(int(k == i) for k in range(nv)) for i in range(1, nv))
    rng = SplitMix64(seed * 0x9E3779B9 + 17)
    for draw in range(1, MAX_FRAME_DRAWS + 1):
        row = rng.int_vector(nv, -5, 5)
        if row[0] == 0:
            continue
        h = _affine_model(f, row)
        Jh = Ideal(gradient(h), GREVLEX, vars=h.vars, domain=h.domain, caps=caps)
        try:
            if quotient_vs_dim(Jh) != (d - 1) ** (nv - 1):
                continue
        except NotZeroDimensional:
            continue
        return AffineModel(
            f=f, matrix=(row,) + identity, h=h, seed=seed, draws=draw, critical_ideal=Jh
        )
    if not has_isolated_singularities(f, caps):
        raise NotIsolated("singular locus is positive-dimensional")
    raise TransversalityNotFound(
        f"no admissible frame after {MAX_FRAME_DRAWS} draws from seed {seed}"
    )


def tame_split(model: AffineModel) -> tuple[int, int]:
    """Split the total critical multiplicity (d-1)^n of h, certified by
    `generic_frame`, into the part supported on the zero fiber and the part
    off it.  mu_on is the part of k[y]/(grad h) on which h vanishes."""
    d = homogeneous_degree(model.f)
    mu_on = local_component_dim(model.critical_ideal, [model.h])
    return mu_on, (d - 1) ** len(model.h.vars) - mu_on


# -------------------------------------------------------- the analysis steps


@dataclass
class MuSummary:
    """Everything the polar-degree computations need about the singularities
    of V(f) for one certified frame."""

    model: AffineModel
    mu_on: int
    mu_off: int
    points: list[ProjectivePoint]
    complete: bool
    local_mu: dict[ProjectivePoint, int] = field(default_factory=dict)


def frame_split(f: Poly, seed: int, caps: Caps = DEFAULT_CAPS) -> tuple[AffineModel, int, int]:
    """`generic_frame` with its critical-multiplicity split: (model, mu_on,
    mu_off)."""
    model = generic_frame(f, seed, caps)
    return (model, *tame_split(model))


def mu_summary(f: Poly, seed: int, caps: Caps = DEFAULT_CAPS) -> MuSummary:
    """`frame_split` plus the points step: the rational singular points and
    their local Milnor numbers, each the part of the frame's k[y]/(grad h) on
    which the forms x_i - p_i x_c (c = p.chart()) vanish.  The enumeration is
    complete when these sum to mu_on; a sum above mu_on raises InconsistentMu."""
    model, mu_on, mu_off = frame_split(f, seed, caps)
    points = rational_singular_points(f, caps)
    x = _frame_coordinates(f, model.matrix[0])
    local_mu: dict[ProjectivePoint, int] = {}
    for pt in points:
        c = pt.chart()
        forms = [x[i] - x[c].scale(a) for i, a in enumerate(pt.coords) if i != c]
        local_mu[pt] = local_component_dim(model.critical_ideal, forms)
    found = sum(local_mu.values())
    if found > mu_on:
        raise InconsistentMu(
            f"local Milnor numbers sum to {found} but the frame split gives {mu_on}"
        )
    return MuSummary(
        model=model,
        mu_on=mu_on,
        mu_off=mu_off,
        points=points,
        complete=found == mu_on,
        local_mu=local_mu,
    )


def total_mu_on_V(f: Poly, seed: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Sum of the Milnor numbers of all singularities of V(f)."""
    return mu_summary(f, seed, caps).mu_on


# --------------------------------------------------------- singularity record


@dataclass
class SingularityRecord:
    """One singular point with its local data.  The weighted-homogeneous
    structure (weights or pure-power exponents) is user-declared; the divisor
    is derived from it and must match the computed Milnor number."""

    point: ProjectivePoint
    mu: int
    label: str | None = None
    bp_exponents: tuple[int, ...] | None = None
    weights: tuple[Fraction, ...] | None = None
    delta: CycDivisor | None = None
    mu0: int | None = None

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError("Milnor number must be at least 1")
        if self.delta is not None:
            if divisor_degree(self.delta) != self.mu:
                raise ValueError(
                    f"divisor degree {divisor_degree(self.delta)} does not match "
                    f"the Milnor number {self.mu} at {self.point}"
                )
            expected = mu0_from_charpoly(self.delta)
            if self.mu0 is None:
                self.mu0 = expected
            elif self.mu0 != expected:
                raise ValueError("declared mu0 contradicts the divisor")
