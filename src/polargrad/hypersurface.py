"""Hypersurface-level analysis: Jacobian ideals, singular points, local
Milnor numbers, generic affine frames and the critical-multiplicity split.

`frame_split` takes an affine frame, certified by one count: the critical
multiplicity dim k[y]/(grad h) of its affine model h is (d-1)^n.  The frame
is a coordinate chart x_k = 0 when f's terms allow it, so h = f|_{x_k=1}
keeps f's sparsity, and otherwise a random frame that moves only the
hyperplane at infinity, so h keeps small coefficients (`generic_frame`).  It
splits that multiplicity into mu_on = mu(V) and mu_off; `mu_summary` adds the
points step: rational singular points and their local Milnor numbers.  Every
singular point has mu_p >= 1, so the rational points are all of them exactly
when their mu_p sum to mu_on, and a larger sum is an inconsistency.

Each of these numbers is read off the frame's algebra A = k[y]/(grad h), the
sum of the local algebras of h at its critical points (Stickelberger's
theorem).  The stable image S of multiplication by h is the part off the zero
fiber, of dimension mu_off; A/S, of dimension mu_on, is the part at the
singular points of V, and the rational ones with their mu_p are the common
generalized eigenspaces of the coordinates on A/S with rational eigenvalues.
grad f is evaluated at each point found, an independent check.

A caller that has proved V smooth (an empty Jacobian scheme, as the
hypothesis gate finds it) passes `smooth=True`: the frame is still drawn and
certified, and the split is (0, dim A) with no S, algebra or points step
(`frame_split` has the argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul

from .arith import divisors as _divisors
from .groebner import (
    DEFAULT_CAPS,
    GREVLEX,
    Caps,
    Ideal,
    NotZeroDimensional,
    _cleared,
    _echelon,
    _scaled_matrix,
    _stable_image,
    local_component_dim,
    projective_dim,
    quotient_vs_dim,
    # not called here: perfbench/tests/test_perfbench.py checks that the
    # tracer rebinds `saturate` in this namespace
    saturate,
)
from .monodromy import CycDivisor, divisor_degree, mu0_from_charpoly
from .poly import Poly, ProjectivePoint, gradient, homogeneous_degree
from .rng import SplitMix64

MAX_FRAME_DRAWS = 32  # random coordinate changes drawn per frame seed, after the chart


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
    return Ideal(gradient(f), GREVLEX, vars=f.vars, caps=caps)


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
        if p.evaluate(point):
            raise NotACriticalPoint(f"gradient of h does not vanish at {tuple(point)}")
    J = Ideal(partials, GREVLEX, vars=h.vars, caps=caps)
    forms = [Poly.variable(h.vars, i) - Poly.constant(h.vars, a) for i, a in enumerate(point)]
    try:
        return local_component_dim(J, forms)
    except NotZeroDimensional as exc:
        raise NotIsolated("h has infinitely many critical points") from exc


# ------------------------------------------------------ univariate polynomials


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
    L = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (L // c.denominator) for c in cs]
    k = gcd(*ints)
    ints = [c // k for c in ints]
    # a root p/q in lowest terms has p | c_0 and q | c_n, and is one exactly
    # when sum c_i p^i q^(n-i) = 0
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[-1])):
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                acc, qk = 0, 1
                for c in reversed(ints):
                    acc = acc * num + c * qk
                    qk *= q
                if acc == 0:
                    roots.append(Fraction(num, q))
    return sorted(roots)


def _annihilator(v: list[int], rows: list[list[int]]) -> list[int]:
    """The minimal polynomial of the integer row vector v under the integer
    matrix R, the lowest-degree p with v p(R) = 0, its coefficients from the
    constant term up.  The Krylov rows v R^k (k = 0..len(v)) each carry a
    unit vector marking k, the highest power first; in their reduced echelon
    form (`_echelon`) the rows with a pivot in that tail span the linear
    relations, and the one with the last pivot has the lowest degree."""
    k = len(v)
    cols = list(zip(*rows))
    krylov = [list(v)]
    while len(krylov) <= k:
        krylov.append([sum(map(mul, krylov[-1], col)) for col in cols])
    tagged = [w + [int(i == k - e) for i in range(k + 1)] for e, w in enumerate(krylov)]
    relation = max(_echelon(tagged), key=lambda r: next(i for i, x in enumerate(r) if x))
    return relation[k:][::-1]


# ------------------------------------------------------------- generic frame


@dataclass(frozen=True)
class AffineModel:
    """A certified affine chart for f: the frame M, the model
    h = f(My)|_{y_0=1} and its critical ideal (grad h), whose one Groebner
    basis certifies the frame and serves the split and every point.  M is
    the identity with row 0 replaced by a row a with a_0 != 0, then rows 0
    and k swapped: x_k = ell = a_0 + a_1 y_1 + ... + a_n y_n, x_0 = y_k when
    k > 0, and x_i = y_i otherwise (`_ell_row` finds k).  A coordinate chart
    has a = e_0, so x_k = 1 and h keeps f's terms; a random frame has
    k = 0."""

    f: Poly
    matrix: tuple[tuple[int, ...], ...]
    h: Poly
    seed: int
    draws: int
    critical_ideal: Ideal = field(compare=False)

    @cached_property
    def off_fiber(self) -> list[list[int]]:
        """S, an echelon basis (`_echelon`) of the stable image of M_h on
        A = k[y]/(grad h): the local algebras at the critical points off the
        zero fiber.  Built once per frame for the split and the points step,
        from M_g with g = f_k(My)|_{y_0=1} for the row k of ell: by Euler's
        identity d*h = a_0*g + sum_i y_i dh/dy_i, so M_h = (a_0/d) M_g on A,
        with the same stable image, and g has degree d - 1."""
        g = _affine_model(gradient(self.f)[_ell_row(self.matrix)], self.matrix)
        return _stable_image(_scaled_matrix(self.critical_ideal, g)[1])


def _frame_matrix(row, k: int) -> tuple[tuple[int, ...], ...]:
    """The frame matrix of `AffineModel`: the identity with row 0 replaced by
    row, then rows 0 and k swapped."""
    n = len(row)
    rows = [tuple(row)] + [tuple(int(j == i) for j in range(n)) for i in range(1, n)]
    rows[0], rows[k] = rows[k], rows[0]
    return tuple(rows)


def _ell_row(matrix) -> int:
    """The k with x_k = ell in a frame matrix: its one row with y_0 in it."""
    return next(k for k, row in enumerate(matrix) if row[0])


def _affine_model(f: Poly, matrix) -> Poly:
    """h = f(My)|_{y_0=1} for a frame matrix M of `AffineModel`'s shape: f
    grouped by the exponent of x_k (k = `_ell_row`) as sum_e x_k^e g_e, then
    h = sum_e ell^e g_e(y), where g_e takes x_0 to y_k.  Expanded on the
    integer coefficients of L*f (`_cleared`); h's coefficients are divided
    by L only at the end."""
    ys = f.vars[1:]
    n = len(ys)
    k = _ell_row(matrix)
    row = matrix[k]
    L, terms = _cleared(f)
    groups: dict[int, list] = {}
    for m, c in terms.items():
        if k:
            m = (m[k],) + m[1:k] + (m[0],) + m[k + 1 :]
        groups.setdefault(m[0], []).append((m[1:], c))
    one = (0,) * n
    ell = [(one, row[0])] + [(one[:i] + (1,) + one[i + 1 :], a) for i, a in enumerate(row[1:]) if a]

    def times(p: dict, q) -> dict:
        out: dict = {}
        for m1, c1 in p.items():
            for m2, c2 in q:
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return out

    powers = [{one: 1}]
    while len(powers) <= max(groups, default=0):
        powers.append(times(powers[-1], ell))
    h: dict = {}
    for e, g in groups.items():
        for m, c in times(powers[e], g).items():
            h[m] = h.get(m, 0) + c
    return Poly.from_clean(ys, {m: Fraction(c, L) for m, c in h.items() if c})


def _chart_may_certify(f: Poly, k: int, d: int) -> bool:
    """False when f's terms prove that the chart x_k = 0 fails its count.  For
    j != k the section x_k = 0 is singular at the vertex e_j exactly when f
    has neither an x_j^d term nor an x_j^(d-1)*x_i term with i not in {j, k}
    (the value and gradient of the section there), and a singular section
    keeps the count below (d-1)^n."""
    return all(
        any(m[j] >= d - 1 and not m[k] for m in f.terms) for j in range(len(f.vars)) if j != k
    )


def generic_frame(f: Poly, seed: int, caps: Caps = DEFAULT_CAPS) -> AffineModel:
    """A certified frame for seed: first the coordinate chart x_k = 0 for
    k = (seed - 1) mod (n + 1), whose matrix swaps x_0 and x_k (the identity
    for k = 0), so h = f|_{x_k=1} keeps f's sparsity; then seeded random
    frames, a first row a in [-5, 5]^(n+1) with a_0 != 0 (det M = a_0) over
    the identity rows, so only the hyperplane at infinity moves, to
    x_0 = a_1 x_1 + ... + a_n x_n, and h keeps small coefficients.  The chart
    is tried, and counted as a draw, only when `_chart_may_certify`; it never
    touches the rng, so the random frames of a seed do not depend on it, and
    a seed makes at most 1 + MAX_FRAME_DRAWS draws.

    A frame is accepted exactly when dim k[y]/(grad h) = (d-1)^n.  The
    partials of h homogenize to the partials of f_M = f(My) in y_1..y_n,
    whose common zeros on y_0 = 0 are the singular points of that hyperplane
    section; by Bezout the count reaches (d-1)^n exactly when there are none,
    so no critical multiplicity escapes to infinity.  A singular point of
    V(f) on y_0 = 0 would be one of them, and every positive-dimensional
    singular locus meets that hyperplane, so a certified frame also proves
    the singularities isolated.

    So a draw is rejected with no Groebner basis when its row has a_i = 0
    at a vertex e_i (i >= 1) where grad f vanishes: a_i = 0 puts e_i on the
    hyperplane at infinity, and grad f(e_i) = 0 exactly when f has no term
    with an x_i-exponent of d - 1 or more (the x_j-partial at e_i is the
    coefficient of x_i^(d-1)*x_j, times d for j = i), so e_i is then a
    singular point of V(f) there and the count must fail.  The row is still
    drawn and numbered, so the frames and draws are those of certifying
    every draw."""
    d = homogeneous_degree(f)
    nv = len(f.vars)
    count = (d - 1) ** (nv - 1)
    singular_vertices = [i for i in range(1, nv) if all(m[i] < d - 1 for m in f.terms)]

    def certified(matrix, draws: int) -> AffineModel | None:
        h = _affine_model(f, matrix)
        Jh = Ideal(gradient(h), GREVLEX, vars=h.vars, caps=caps)
        try:
            if quotient_vs_dim(Jh) != count:
                return None
        except NotZeroDimensional:
            return None
        return AffineModel(f=f, matrix=matrix, h=h, seed=seed, draws=draws, critical_ideal=Jh)

    k = (seed - 1) % nv
    tried = _chart_may_certify(f, k, d)
    if tried and (model := certified(_frame_matrix((1,) + (0,) * (nv - 1), k), 1)):
        return model
    rng = SplitMix64(seed * 0x9E3779B9 + 17)
    for draw in range(1, MAX_FRAME_DRAWS + 1):
        row = rng.int_vector(nv, -5, 5)
        if row[0] == 0 or not all(row[i] for i in singular_vertices):
            continue
        if model := certified(_frame_matrix(row, 0), tried + draw):
            return model
    if not has_isolated_singularities(f, caps):
        raise NotIsolated("singular locus is positive-dimensional")
    raise TransversalityNotFound(
        f"no admissible frame after {tried + MAX_FRAME_DRAWS} draws from seed {seed}"
    )


def tame_split(model: AffineModel) -> tuple[int, int]:
    """Split the total critical multiplicity (d-1)^n of h, certified by
    `generic_frame`, into the part supported on the zero fiber and the part
    off it: mu_off is the dimension of S = `model.off_fiber`."""
    mu_off = len(model.off_fiber)
    return quotient_vs_dim(model.critical_ideal) - mu_off, mu_off


def rational_singular_points(model: AffineModel) -> dict[ProjectivePoint, int]:
    """The rational singular points of V(f) with their local Milnor numbers,
    sorted by coordinates, read off the frame's A = k[y]/(grad h) alone.
    A/S, with S = `model.off_fiber`, is the sum of the local algebras of h at
    its critical points on the zero fiber, which are the singular points of V
    (Stickelberger); y_j acts on it as R_j, which is y_j(p) plus a nilpotent
    on the part at p.  So the rational roots of the minimal polynomial of R_j
    hold the j-th coordinates of the rational points.  The walk keeps a
    prefix (r_1, ..., r_j) while a part of A/S is left on which every
    y_i - r_i is nilpotent: mu_on minus the rank of the stacked stable images
    of R_i - r_i.  The parts of different roots r_j under one prefix are
    disjoint, so the roots stop once their parts fill the prefix's.  At a
    full point that part is the local algebra, of dimension mu_p.  A
    certified frame has no singular point at infinity, so
    x = M (1, r_1, ..., r_n) gives them all.
    Whether they are all of the singular points is decided by `mu_summary`."""
    A, S = model.critical_ideal.algebra, model.off_fiber
    pivots = {next(i for i, x in enumerate(b) if x): b for b in S}
    free = [i for i in range(len(A.std)) if i not in pivots]
    mu_on = len(free)
    if not mu_on:
        return {}
    # P times the class of v in A/S, on the free columns; S is reduced, so
    # each pivot entry of v is cleared by its own row
    P = lcm(*(b[c] for c, b in pivots.items()))
    scaled = [(c, P // b[c], b) for c, b in pivots.items()]

    def quotient(v: list[int]) -> list[int]:
        return [P * v[i] - sum(v[c] * t * b[i] for c, t, b in scaled) for i in free]

    # R_j = Q[j] / s on the basis of the classes of the free columns
    Q = [[quotient(rows[i]) for i in free] for rows in A.rows]
    s = P * A.denominator
    one = quotient([int(not any(m)) for m in A.std])  # the class of 1
    roots = []
    for R in Q:
        coeffs = _annihilator(one, R)
        roots.append(_rational_roots([c * s**e for e, c in enumerate(coeffs)]))
    images: dict[tuple[int, Fraction], list[list[int]]] = {}
    walk: list[tuple[tuple[Fraction, ...], list[list[int]]]] = [((), [])]
    for j, R in enumerate(Q):
        grown = []
        for prefix, stacked in walk:
            left = mu_on - len(stacked)  # the part under the prefix not yet split
            for r in roots[j]:
                if (j, r) not in images:  # the stable image of s * den(r) * (R_j - r)
                    shifted = [[x * r.denominator for x in row] for row in R]
                    for i, row in enumerate(shifted):
                        row[i] -= r.numerator * s
                    images[j, r] = _stable_image(shifted)
                nxt = _echelon(stacked + images[j, r])
                if len(nxt) < mu_on:
                    grown.append((prefix + (r,), nxt))
                    left -= mu_on - len(nxt)
                    if not left:  # the parts of the roots are disjoint: none is left
                        break
        walk = grown
    M = model.matrix
    found = {
        ProjectivePoint([r[0] + sum(map(mul, r[1:], prefix)) for r in M]): mu_on - len(stacked)
        for prefix, stacked in walk
    }
    return dict(sorted(found.items(), key=lambda item: item[0].coords))


# -------------------------------------------------------- the analysis steps


@dataclass
class MuSummary:
    """Everything the polar-degree computations need about the singularities
    of V(f) for one certified frame."""

    model: AffineModel
    mu_on: int
    mu_off: int
    complete: bool
    local_mu: dict[ProjectivePoint, int] = field(default_factory=dict)


def frame_split(
    f: Poly, seed: int, caps: Caps = DEFAULT_CAPS, smooth: bool = False
) -> tuple[AffineModel, int, int]:
    """`generic_frame` with its critical-multiplicity split: (model, mu_on,
    mu_off).

    `smooth` is the caller's proof that V(f) is smooth: the Jacobian scheme
    of f is empty (projective dimension -1, as `polar.require_hypotheses`
    finds it).  The frame is still drawn and certified, and the split is then
    (0, dim A) with no algebra built: at a critical point p of h with
    h(p) = 0, put x = M (1, p) and f_M = f(My).  Euler's identity for f_M at
    (1, p) leaves d*h(p) = df_M/dy_0, and df_M/dy_i = dh/dy_i = 0 for
    i >= 1, so grad f_M(1, p) = M^T grad f(x) = 0 and grad f(x) = 0, which
    the empty Jacobian scheme rules out.  So h is a unit on A, S = A and
    mu_on = 0."""
    model = generic_frame(f, seed, caps)
    if smooth:
        return model, 0, quotient_vs_dim(model.critical_ideal)
    return (model, *tame_split(model))


def mu_summary(f: Poly, seed: int, caps: Caps = DEFAULT_CAPS, smooth: bool = False) -> MuSummary:
    """`frame_split` (passing `smooth` on) plus the points step,
    `rational_singular_points` on the same frame, when mu_on > 0: with
    mu_on = 0 there is no point to find.  grad f must vanish at each point it
    returns, an independent check; the enumeration is complete when their
    local Milnor numbers sum to mu_on.  A point where grad f does not vanish,
    or a sum above mu_on, raises InconsistentMu."""
    model, mu_on, mu_off = frame_split(f, seed, caps, smooth=smooth)
    local_mu = rational_singular_points(model) if mu_on else {}
    if local_mu:
        partials = gradient(f)
        for pt in local_mu:
            if any(g.evaluate(pt.coords) != 0 for g in partials):
                raise InconsistentMu(f"the frame gives {pt}, where grad f does not vanish")
    found = sum(local_mu.values())
    if found > mu_on:
        raise InconsistentMu(
            f"local Milnor numbers sum to {found} but the frame split gives {mu_on}"
        )
    return MuSummary(
        model=model,
        mu_on=mu_on,
        mu_off=mu_off,
        complete=found == mu_on,
        local_mu=local_mu,
    )


# --------------------------------------------------------- singularity record


@dataclass
class SingularityRecord:
    """One singular point with its local data.  The divisor is derived from
    a user-declared weighted-homogeneous structure and must match the
    computed Milnor number; mu0 is read off the divisor."""

    point: ProjectivePoint
    mu: int
    label: str | None = None
    delta: CycDivisor | None = None
    mu0: int | None = field(init=False, default=None)

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError("Milnor number must be at least 1")
        if self.delta is not None:
            if divisor_degree(self.delta) != self.mu:
                raise ValueError(
                    f"divisor degree {divisor_degree(self.delta)} does not match "
                    f"the Milnor number {self.mu} at {self.point}"
                )
            self.mu0 = mu0_from_charpoly(self.delta)
