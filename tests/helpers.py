"""Shared test utilities: independent oracles and data generators.

The oracles here deliberately avoid the code paths they check: quotient
dimensions are recomputed from a Macaulay matrix rank, saturations from the
extra-variable construction, local lengths by double saturation instead of
multiplication matrices, fiber counts of the gradient map from the
saturated projective fiber instead of the affine cone, eigenvalue
multiplicities by enumerating root-of-unity products, the completeness of
the rational singular points from Tjurina numbers instead of Milnor numbers,
the points themselves by lex bases on the coordinate cells instead of
eigenvalues on the frame's algebra, the genericity of an affine frame from
two projective certificates instead of one critical count (every frame
draw certified, none skipped for its zeros), multivariate division, Buchberger's pair loop and the
staircase's box walk on tuple monomials instead of packed ints, and echelon forms, stable images and
multiplication matrices in `Fraction` arithmetic and by one normal form per
standard monomial instead of on integer rows from the variable matrices, and
the parser on whole-`Poly` arithmetic instead of term dicts.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from itertools import product as iproduct

import hypothesis.strategies as st
from hypothesis import assume

import polargrad.groebner as groebner
import polargrad.hypersurface as hypersurface
import polargrad.polar as polar
from polargrad.groebner import (
    DEFAULT_CAPS,
    GREVLEX,
    LEX,
    Caps,
    Ideal,
    NotZeroDimensional,
    ResourceLimit,
    TermOrder,
    buchberger,
    elimination_order,
    leading_monomial,
    normal_form,
    projective_dim,
    quotient_vs_dim,
    s_polynomial,
    saturate,
    saturate_ideal,
    staircase,
    zero_dim_degree_projective,
)
from polargrad.hypersurface import NotIsolated, _rational_roots, jacobian_ideal
from polargrad.parser import ParseError, UnknownVariable, _tokenize
from polargrad.poly import (
    DomainMismatch,
    Mono,
    Poly,
    dehomogenize,
    gradient,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    ProjectivePoint,
    substitute_linear,
)
from polargrad.rng import SplitMix64

VAR_POOL = ("w", "x", "y", "z", "u", "v")


def var_names(nv: int) -> tuple[str, ...]:
    return VAR_POOL[:nv]


def record_pair_loops(monkeypatch) -> list:
    """Record every Buchberger pair loop as (term order, the `_Run` it
    returns, or None when a followed schedule did not match, whether it
    followed a schedule): the `_pair_loop` seam, rebound in `groebner`, where
    every `Ideal` enters it, and in `polar`, where the oracle's cone ideals
    do."""
    real, calls = groebner._pair_loop, []

    def loop(vars, packing, caps, gens, follow=None):
        run = real(vars, packing, caps, gens, follow)
        calls.append((packing.order, run, follow is not None))
        return run

    for module in (groebner, polar):
        monkeypatch.setattr(module, "_pair_loop", loop)
    return calls


# ----------------------------------------------------------------- strategies


@st.composite
def polys(draw, min_vars=2, max_vars=3, max_exp=3, max_terms=5, allow_zero=True):
    nv = draw(st.integers(min_vars, max_vars))
    names = var_names(nv)
    nterms = draw(st.integers(0 if allow_zero else 1, max_terms))
    terms: dict = {}
    for _ in range(nterms):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nv))
        coeff = draw(
            st.fractions(min_value=-5, max_value=5, max_denominator=6)
        )
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Poly(names, terms)


@st.composite
def poly_pairs(draw, max_vars=3, max_exp=3):
    nv = draw(st.integers(2, max_vars))
    names = var_names(nv)

    def one():
        nterms = draw(st.integers(0, 4))
        terms: dict = {}
        for _ in range(nterms):
            mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nv))
            coeff = draw(st.integers(-6, 6))
            terms[mono] = terms.get(mono, 0) + coeff
        return Poly(names, terms)

    point = tuple(
        draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        for _ in range(nv)
    )
    return one(), one(), point


@st.composite
def homogeneous_polys(draw, max_vars=4, max_degree=6, max_terms=5):
    nv = draw(st.integers(2, max_vars))
    names = var_names(nv)
    d = draw(st.integers(1, max_degree))
    nterms = draw(st.integers(1, max_terms))
    terms: dict = {}
    for _ in range(nterms):
        balls = draw(st.lists(st.integers(0, nv - 1), min_size=d, max_size=d))
        mono = tuple(balls.count(i) for i in range(nv))
        coeff = draw(st.integers(-6, 6))
        terms[mono] = terms.get(mono, 0) + coeff
    return Poly(names, terms)


def _monomials(nv, degree):
    return [
        tuple(combo.count(i) for i in range(nv))
        for combo in combinations_with_replacement(range(nv), degree)
    ]


@st.composite
def form_products(draw, nvs=(2, 3), count=(1, 2)):
    """(f, whether f was built with a square factor): a product of between
    count[0] and count[1] linear or quadratic forms in a number of variables
    drawn from `nvs`, the first factor possibly taken twice."""
    nv = draw(st.sampled_from(nvs))
    names = (("x", "y"), ("x", "y", "z"), ("w", "x", "y", "z"))[nv - 2]
    factors = []
    for _ in range(draw(st.integers(*count))):
        monos = _monomials(nv, draw(st.sampled_from((1, 2))))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
        factors.append(Poly(names, zip(monos, coeffs)))
    assume(all(not g.is_zero() for g in factors))
    square = draw(st.booleans())
    if square:
        factors.append(factors[0])
    f = factors[0]
    for g in factors[1:]:
        f = f * g
    return f, square


# ------------------------------------------------------------- linear algebra


def fraction_rank(rows: list[list]) -> int:
    """Rank over the rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = Fraction(1, rows[pivot_row][col])
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def invert_fraction_matrix(M):
    n = len(M)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(M)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ------------------------------------------- Fraction kernels on k[x]/I


def reference_multiplication_matrix(I: Ideal, g: Poly) -> tuple[tuple[Mono, ...], list[list]]:
    """The standard monomials of a zero-dimensional I and the matrix of
    multiplication by g on k[x]/I, built as before the variable matrices of
    `groebner._scaled_matrix`: row i holds the coordinates of the normal form
    of g * std[i], one normal form per standard monomial."""
    std = staircase(I).standard_monomials
    if std is None:
        raise NotZeroDimensional("no pure power of some variable among the leading terms")
    column = {m: i for i, m in enumerate(std)}
    rows = []
    for m in std:
        shifted = Poly(g.vars, {mono_mul(gm, m): c for gm, c in g.terms.items()})
        row = [Fraction(0)] * len(std)
        for t, c in normal_form(shifted, I.basis, I.order, I.caps).terms.items():
            row[column[t]] = c
        rows.append(row)
    return std, rows


def reference_echelon(rows) -> list[list]:
    """`groebner._echelon` as it was before integer rows: a reduced echelon
    basis of the row space of `Fraction` rows, pivots scaled to 1."""
    basis: list[tuple[int, list]] = []
    for r in rows:
        for col, b in basis:
            c = r[col]
            if c:
                r = [x - c * y for x, y in zip(r, b)]
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        inv = 1 / r[pivot]
        r = [inv * x for x in r]
        for k, (col, b) in enumerate(basis):
            c = b[pivot]
            if c:
                basis[k] = (col, [x - c * y for x, y in zip(b, r)])
        basis.append((pivot, r))
    return [b for _, b in basis]


def reference_stable_image(rows) -> list[list]:
    """`groebner._stable_image` as it was before integer rows: echelon bases
    of the images of M, M^2, ... until two have equal dimension."""
    image = reference_echelon(rows)
    while True:
        products = []
        for v in image:
            out = [Fraction(0)] * len(rows)
            for c, row in zip(v, rows):
                if c:
                    out = [x + c * y for x, y in zip(out, row)]
            products.append(out)
        nxt = reference_echelon(products)
        if len(nxt) == len(image):
            return image
        image = nxt


# ------------------------------------------------------------ Macaulay oracle


def monomials_up_to(nv: int, bound: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def walk(prefix, remaining, i):
        if i == nv:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            walk(prefix + [e], remaining - e, i + 1)

    walk([], bound, 0)
    return sorted(out)


def macaulay_quotient_dim(gens: list[Poly], bound: int) -> int:
    """Dimension of (monomials of degree <= bound) modulo the span of all
    degree-<= bound multiples of the generators; equals the quotient
    dimension once `bound` passes the staircase."""
    nv = len(gens[0].vars)
    cols = {m: i for i, m in enumerate(monomials_up_to(nv, bound))}
    rows = []
    for g in gens:
        dg = g.degree()
        for m in monomials_up_to(nv, bound - dg):
            row = [0] * len(cols)
            for gm, c in g.terms.items():
                row[cols[mono_mul(m, gm)]] = c
            rows.append(row)
    return len(cols) - fraction_rank(rows)


def random_zero_dim_ideal(seed: int, nv: int) -> list[Poly]:
    """Deterministic random ideal guaranteed zero-dimensional: one generator
    per variable with a pure-power leading term plus a lower-degree tail."""
    rng = SplitMix64(seed)
    names = var_names(nv)
    gens = []
    for i in range(nv):
        d = rng.randint(2, 4)
        terms = {tuple(d if j == i else 0 for j in range(nv)): Fraction(1)}
        for _ in range(rng.randint(0, 3)):
            mono = tuple(rng.randint(0, d - 1) for _ in range(nv))
            if sum(mono) >= d:
                continue
            c = rng.randint(-3, 3)
            if c:
                terms[mono] = terms.get(mono, Fraction(0)) + c
        gens.append(Poly(names, terms))
    return gens


# ------------------------------------------------- Rabinowitsch cross-check


def rabinowitsch_saturate(I: Ideal, g: Poly) -> Ideal:
    """I : g^inf via the extra-variable construction (1 - t*g)."""
    tname = "t_rab"
    new_vars = (tname,) + I.vars
    lifted = [Poly(new_vars, {(0,) + m: c for m, c in p.terms.items()}) for p in I.gens]
    tg = Poly(new_vars, {(1,) + m: c for m, c in g.terms.items()})
    one = Poly.constant(new_vars, 1)
    lifted.append(one - tg)
    order = elimination_order((0,), tuple(range(1, len(new_vars))))
    basis = buchberger(lifted, order)
    kept = [
        Poly(I.vars, {m[1:]: c for m, c in p.terms.items()})
        for p in basis
        if all(m[0] == 0 for m in p.terms)
    ]
    return Ideal(kept, I.order, vars=I.vars)


# ----------------------------------------------- saturated fiber oracle


def fiber_minors(grads: list[Poly], u) -> list[Poly]:
    """The nonzero 2x2 minors of the matrix with rows grad f and u."""
    nv = len(grads)
    minors = (
        grads[i].scale(u[j]) - grads[j].scale(u[i]) for i in range(nv) for j in range(i + 1, nv)
    )
    return [g for g in minors if not g.is_zero()]


def saturation_fiber_count(grads: list[Poly], u) -> int:
    """Points of the fiber of the gradient map over [u], with multiplicity,
    by the projective route the fiber oracle took before the affine cone:
    the minors of (grad f | u), saturated by one partial f_j with
    u_j * f_j != 0 to remove the base locus grad f = 0, then the degree of
    the zero-dimensional projective scheme.  Raises NotZeroDimensional on a
    positive-dimensional fiber."""
    minors = fiber_minors(grads, u)
    if not minors:
        raise NotZeroDimensional("the target is proportional to the gradient")
    j = next((j for j, g in enumerate(grads) if not g.scale(u[j]).is_zero()), None)
    if j is None:  # the minors contain u_k * f_i for every i, hence grad f
        return 0
    fiber = saturate(Ideal(minors), grads[j])[0]
    if projective_dim(fiber) == -1:
        return 0
    return zero_dim_degree_projective(fiber)


# ------------------------------------------------ tuple-monomial division


def reference_divmod(p: Poly, divisors: list[Poly], order: TermOrder, caps: Caps = DEFAULT_CAPS):
    """Multivariate division on tuple monomials, as `groebner.normal_form`
    ran it before monomials were packed into ints: a linear
    scan of the divisors' leading monomials with `mono_divides` for each
    term, and a heap keyed by `order.key` negated.  Returns (quotients,
    remainder) with p = sum(q_i * divisors_i) + remainder and no remainder
    term divisible by any leading term of the divisors."""
    lead = []
    for g in divisors:
        if g.is_zero():
            lead.append(None)
            continue
        lt = leading_monomial(g, order)
        lead.append((lt, g.terms[lt], g.terms))

    def neg_key(m: Mono) -> tuple:
        # order.key with each integer negated: the largest monomial first
        return tuple(tuple(-e for e in k) if isinstance(k, tuple) else -k for k in order.key(m))

    work = dict(p.terms)
    heap = [(neg_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Mono, Fraction] = {}
    quotients: list[dict[Mono, Fraction]] = [{} for _ in divisors]
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        for gi, entry in enumerate(lead):
            if entry is None:
                continue
            ltm, lc, gterms = entry
            if mono_divides(ltm, m):
                shift = mono_div(m, ltm)
                factor = c / lc
                q = quotients[gi]
                q[shift] = q.get(shift, 0) + factor
                del work[m]
                for gm, gc in gterms.items():
                    if gm == ltm:
                        continue
                    nm = mono_mul(gm, shift)
                    if mono_degree(nm) > caps.max_degree:
                        raise ResourceLimit(
                            f"degree cap {caps.max_degree} exceeded during reduction"
                        )
                    d = work.get(nm, 0) - factor * gc
                    if not d:
                        work.pop(nm, None)
                    else:
                        if nm not in work:
                            heapq.heappush(heap, (neg_key(nm), nm))
                        work[nm] = d
                break
        else:
            remainder[m] = c
            del work[m]
    return [Poly.from_clean(p.vars, q) for q in quotients], Poly.from_clean(p.vars, remainder)


# ------------------------------------------- tuple-monomial Buchberger


def _monic(p: Poly, order: TermOrder) -> Poly:
    lc = p.terms[leading_monomial(p, order)]
    return p if lc == 1 else p.scale(1 / lc)


def reference_normal_form(p: Poly, basis, order: TermOrder, caps: Caps = DEFAULT_CAPS) -> Poly:
    """`groebner.normal_form` on `reference_divmod`."""
    basis = list(basis)
    return p if p.is_zero() or not basis else reference_divmod(p, basis, order, caps)[1]


def reference_buchberger(gens, order: TermOrder = GREVLEX, caps: Caps = DEFAULT_CAPS) -> list[Poly]:
    """`groebner.buchberger` as it was before its pair loop ran on packed
    monomials: tuple leads, `mono_lcm`/`mono_mul`/`mono_divides` for the
    pair criteria, and each S-polynomial built by `s_polynomial` and reduced
    by `reference_divmod`.  The same unique reduced basis, term for term in
    the same dict order, or the same `ResourceLimit`."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    vars0 = gens[0].vars
    for g in gens:
        if g.vars != vars0:
            raise DomainMismatch("generators live in different rings")

    G: list[Poly] = []
    lts: list[Mono] = []
    pending: set[tuple[int, int]] = set()
    queue: list = []  # heap of (order key of the lcm, pair), the pair selection

    def add(h: Poly) -> None:
        h = _monic(h, order)
        idx = len(G)
        if idx + 1 > caps.max_basis:
            raise ResourceLimit(f"basis cap {caps.max_basis} exceeded")
        lt = leading_monomial(h, order)
        for i in range(idx):
            pending.add((i, idx))
            heapq.heappush(queue, (order.key(mono_lcm(lts[i], lt)), (i, idx)))
        G.append(h)
        lts.append(lt)

    intake = sorted(
        {g for g in (_monic(g, order) for g in gens)},
        key=lambda p: (order.key(leading_monomial(p, order)), sorted(p.terms.items())),
    )
    for g in intake:
        add(g)

    while queue:
        _, (i, j) = heapq.heappop(queue)
        pending.discard((i, j))
        lcm = mono_lcm(lts[i], lts[j])
        if lcm == mono_mul(lts[i], lts[j]):
            continue  # coprime leading terms
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if mono_divides(lts[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        h = reference_normal_form(s_polynomial(G[i], G[j], order), G, order, caps)
        if not h.is_zero():
            if h.degree() > caps.max_degree:
                raise ResourceLimit(f"degree cap {caps.max_degree} exceeded")
            add(h)

    # minimal generators of the leading-term ideal
    order_of = sorted(range(len(G)), key=lambda i: order.key(lts[i]))
    kept: list[int] = []
    for i in order_of:
        if not any(mono_divides(lts[k], lts[i]) for k in kept):
            kept.append(i)
    basis = [G[i] for i in kept]

    # inter-reduce tails until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            h = reference_normal_form(basis[i], others, order, caps)
            if h != basis[i]:
                basis[i] = _monic(h, order)
                changed = True

    basis.sort(key=lambda p: order.key(leading_monomial(p, order)), reverse=True)
    return basis


def reference_staircase(monos, nvars: int) -> tuple:
    """(lead monomials, standard monomials or None, Krull dimension) of the
    monomial ideal (monos), as `groebner.staircase` read them off tuple
    monomials before its packed walk: the minimal generators by (degree,
    exponents); every monomial of the box below the smallest pure powers,
    kept when no generator divides it; and the size of the largest variable
    subset that holds no generator's support."""
    def by_degree(m):
        return sum(m), m

    leads: list[Mono] = []
    for m in sorted(set(monos), key=by_degree):
        if not any(mono_divides(k, m) for k in leads):
            leads.append(m)
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    if frozenset() in supports:
        return tuple(leads), (), -1
    dim = max(
        k
        for k in range(nvars + 1)
        for subset in combinations(range(nvars), k)
        if not any(s <= set(subset) for s in supports)
    )
    bounds = [min((m[i] for m, s in zip(leads, supports) if s == {i}), default=None) for i in range(nvars)]
    if None in bounds:
        return tuple(leads), None, dim
    box = iproduct(*(range(b) for b in bounds))
    std = sorted((m for m in box if not any(mono_divides(k, m) for k in leads)), key=by_degree)
    return tuple(leads), tuple(std), dim


# ---------------------------------------------------- double-saturation oracle


def saturation_local_dim(gens, point) -> int:
    """Vector-space dimension of the primary component of the affine ideal
    (gens) at `point`: translate the point to the origin, saturate away the
    component at the origin, then saturate the original by the remainder."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise NotZeroDimensional("zero ideal has no finite local component")
    vars = gens[0].vars
    shift = [Poly.variable(vars, i) + Poly.constant(vars, Fraction(a)) for i, a in enumerate(point)]
    J = Ideal([g.subs(shift) for g in gens], GREVLEX)
    if J.is_unit():
        return 0
    m = Ideal([Poly.variable(vars, i) for i in range(len(vars))], GREVLEX)
    rest = saturate_ideal(J, m)
    if rest.is_unit():
        primary = J
    else:
        primary = saturate_ideal(J, rest)
    return quotient_vs_dim(primary)


# ------------------------------------------------------ lex singular points


def _substitute_last(p: Poly, value: Fraction) -> Poly:
    """Evaluate the last variable at `value` and drop it from the ring."""
    out: dict = {}
    for m, c in p.terms.items():
        out[m[:-1]] = out.get(m[:-1], 0) + c * value ** m[-1]
    return Poly(p.vars[:-1], {m: c for m, c in out.items() if c})


def lex_points_affine(gens: list[Poly]) -> list[tuple[Fraction, ...]]:
    """All rational points of a zero-dimensional affine system, by a lex
    basis, the rational roots of its eliminant in the last variable and
    back-substitution."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise NotZeroDimensional("zero ideal")
    k = len(gens[0].vars)
    if k == 0:
        return [()]
    basis = Ideal(gens, LEX).basis
    if any(b.degree() == 0 for b in basis):
        return []
    pure_last = [b for b in basis if all(not any(m[:-1]) for m in b.terms)]
    if not pure_last:
        raise NotZeroDimensional("no univariate eliminant in the last variable")
    coeffs = [Fraction(0)] * (max(m[-1] for m in pure_last[0].terms) + 1)
    for m, c in pure_last[0].terms.items():
        coeffs[m[-1]] = Fraction(c)
    points: list[tuple[Fraction, ...]] = []
    for r in _rational_roots(coeffs):
        if any(g.evaluate([Fraction(0)] * (k - 1) + [r]) != 0 for g in pure_last):
            continue
        if k == 1:
            points += [(r,)] if all(g.evaluate([r]) == 0 for g in gens) else []
            continue
        reduced = [g for g in (_substitute_last(b, r) for b in basis) if not g.is_zero()]
        if not reduced:
            raise NotZeroDimensional("fiber slice is not zero-dimensional")
        points += [sub + (r,) for sub in lex_points_affine(reduced)]
    return sorted(points)


def lex_singular_points(f: Poly) -> list[ProjectivePoint]:
    """All rational singular points of V(f), sorted by coordinates, without a
    frame: the Jacobian ideal restricted to each coordinate cell (x_c = 1 and
    every later coordinate 0), solved by `lex_points_affine`."""
    J = jacobian_ideal(f)
    pd = projective_dim(J)
    if pd == -1:
        return []
    if pd > 0:
        raise NotIsolated(f"singular locus has dimension {pd}")
    nv = len(f.vars)
    points: list[ProjectivePoint] = []
    for chart in range(nv - 1, -1, -1):
        cell = []
        for g in J.gens:
            g = Poly(g.vars, {m: c for m, c in g.terms.items() if not any(m[chart + 1 :])})
            for j in range(nv - 1, chart - 1, -1):
                g = dehomogenize(g, j)
            if not g.is_zero():
                cell.append(g)
        if chart == 0:
            if not cell:
                points.append(ProjectivePoint((1,) + (0,) * (nv - 1)))
            continue
        if not cell:
            raise NotIsolated("singular scheme meets a coordinate cell in a curve")
        if any(g.degree() == 0 for g in cell):
            continue
        for sol in lex_points_affine(cell):
            points.append(ProjectivePoint(sol + (Fraction(1),) + (Fraction(0),) * (nv - 1 - chart)))
    return sorted(points, key=lambda p: p.coords)


# ------------------------------------------------ Tjurina-degree certificate


def tjurina_complete(f: Poly) -> bool:
    """Whether the rational singular points of V(f) are all of them: their
    Tjurina numbers (local lengths of the Jacobian scheme) sum to the degree
    of the whole projective Jacobian scheme."""
    J = jacobian_ideal(f)
    if projective_dim(J) == -1:
        return True
    found = sum(
        saturation_local_dim([dehomogenize(g, pt.chart()) for g in J.gens], pt.affine_coords())
        for pt in lex_singular_points(f)
    )
    return found == zero_dim_degree_projective(J)


# ------------------------------------------------- frame certificate pair


def frame_certificates(fM: Poly, caps: Caps = DEFAULT_CAPS) -> bool:
    """The two-certificate frame rule: the section of V(fM) by x_0 = 0 is
    smooth, and V(fM) has no singular point on x_0 = 0.  `generic_frame`
    accepts exactly these frames by the one count dim k[y]/(grad h) = (d-1)^n."""
    section = Poly(fM.vars, {m: c for m, c in fM.terms.items() if m[0] == 0})
    restriction = dehomogenize(section, 0)
    if restriction.is_zero():
        return False
    Jw = Ideal(gradient(restriction), GREVLEX, vars=restriction.vars, caps=caps)
    if Jw.is_zero_ideal() or projective_dim(Jw) != -1:
        return False
    at_infinity = Ideal(list(gradient(fM)) + [Poly.variable(fM.vars, 0)], GREVLEX, caps=caps)
    return projective_dim(at_infinity) == -1


def reference_generic_frame(f: Poly, seed: int, caps: Caps = DEFAULT_CAPS) -> tuple:
    """(matrix, draws, certified): `generic_frame`'s frame and draw count for
    seed, found by certifying every draw with `frame_certificates` on f(My),
    and the number of draws certified.  The same draws in the same order: the
    chart x_k = 0 when `_chart_may_certify` lets it be tried, then the seeded
    rows, each with a_0 != 0 certified, none skipped for its zeros.  The
    matrix is None when no draw certifies."""
    nv, d = len(f.vars), f.degree()
    k = (seed - 1) % nv
    tried = hypersurface._chart_may_certify(f, k, d)
    rows = [(hypersurface._frame_matrix((1,) + (0,) * (nv - 1), k), 1)] if tried else []
    rng = SplitMix64(seed * 0x9E3779B9 + 17)
    for draw in range(1, hypersurface.MAX_FRAME_DRAWS + 1):
        row = rng.int_vector(nv, -5, 5)
        if row[0]:
            rows.append((hypersurface._frame_matrix(row, 0), tried + draw))
    certified = 0
    for matrix, draws in rows:
        certified += 1
        if frame_certificates(substitute_linear(f, matrix), caps):
            return matrix, draws, certified
    return None, tried + hypersurface.MAX_FRAME_DRAWS, certified


# ------------------------------------------- eigenvalue product enumeration


def brute_force_mult(exponents: list[int], k: int) -> int:
    """Multiplicity of exp(2*pi*i/k) among products of nontrivial roots of
    unity: count exponent tuples whose fractional angle sum is 1/k."""
    target = Fraction(1, k) % 1
    count = 0
    for combo in iproduct(*[range(1, a) for a in exponents]):
        angle = sum(Fraction(c, a) for c, a in zip(combo, exponents)) % 1
        if angle == target:
            count += 1
    return count


def bp_tuples_up_to(product_bound: int) -> list[tuple[int, ...]]:
    """All nondecreasing tuples of integers >= 2 with product <= bound."""
    out: list[tuple[int, ...]] = []

    def walk(prefix: list[int], minimum: int, prod: int):
        if prefix:
            out.append(tuple(prefix))
        a = minimum
        while prod * a <= product_bound:
            walk(prefix + [a], a, prod * a)
            a += 1

    walk([], 2, 1)
    return out


# ------------------------------------------------- Poly-arithmetic parser


class _PolyParser:
    """`parser.parse_poly` as it was on whole-`Poly` arithmetic, an oracle for
    the term-dict parser: the same tokens, grammar, ParseError positions and
    max_degree checks, each subexpression a `Poly`, each power `Poly.__pow__`."""

    def __init__(self, text, vars, max_degree):
        self.tokens, self.pos = _tokenize(text), 0
        self.vars, self.max_degree = vars, max_degree

    def check(self, degree):
        if self.max_degree is not None and degree > self.max_degree:
            raise ValueError(f"input degree {degree} exceeds the cap {self.max_degree}")

    def op(self, ops):
        """The next token's op when it is one of `ops` (consumed), else None."""
        kind, value, _ = self.tokens[self.pos]
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def uint(self, message):
        kind, value, where = self.tokens[self.pos]
        if kind != "int":
            raise ParseError(message, where)
        self.pos += 1
        return int(value)

    def parse(self):
        result = self.expression()
        kind, value, where = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", where)
        return result

    def expression(self):
        sign = self.op("+-")
        acc = self.term()
        if sign == "-":
            acc = -acc
        while sign := self.op("+-"):
            rhs = self.term()
            acc = acc - rhs if sign == "-" else acc + rhs
        return acc

    def term(self):
        acc = self.factor()
        while self.op("*"):
            rhs = self.factor()
            if self.max_degree is not None:
                self.check(acc.degree() + rhs.degree())
            acc = acc * rhs
        return acc

    def factor(self):
        base = self.base()
        if not self.op("^"):
            return base
        n = self.uint("exponent must be an unsigned integer")
        if self.max_degree is not None:
            self.check(n * base.degree())
        return base**n

    def base(self):
        kind, value, where = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            c = int(value)
            if self.op("/"):
                where = self.tokens[self.pos][2]
                den = self.uint("denominator must be an unsigned integer")
                if den == 0:
                    raise ParseError("zero denominator", where)
                c = Fraction(c, den)
            return Poly.constant(self.vars, c)
        if kind == "name":
            if value not in self.vars:
                raise UnknownVariable(f"unknown variable {value!r}", where)
            self.check(1)
            return Poly.variable(self.vars, self.vars.index(value))
        if (kind, value) == ("op", "("):
            inner = self.expression()
            if not self.op(")"):
                raise ParseError("expected ')'", self.tokens[self.pos][2])
            return inner
        raise ParseError("expected a number, variable or parenthesis", where)


def reference_parse_poly(text: str, vars, *, max_degree: int | None = None) -> Poly:
    names = tuple(vars)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _PolyParser(text, names, max_degree).parse()


@st.composite
def expression_texts(draw, names, depth=3, top=True):
    """Polynomial text over `names`: sums, differences, products, powers
    (exponents 0 to 3), parentheses, signs and constants n and a/b.  A sign
    is valid only at the start of an expression, so only the whole text may
    start with one and a negated subexpression is put in parentheses."""
    kind = "leaf" if depth == 0 else draw(
        st.sampled_from(("leaf", "sum", "product", "power", "parens", "minus"))
    )
    if kind == "leaf":
        return draw(st.one_of(
            st.sampled_from(names),
            st.integers(0, 12).map(str),
            st.tuples(st.integers(0, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        ))
    sub = expression_texts(names, depth - 1, top=False)
    if kind == "sum":
        return f"{draw(sub)} {draw(st.sampled_from('+-'))} {draw(sub)}"
    if kind == "product":
        return f"{draw(sub)}*{draw(sub)}"
    if kind == "power":
        base = draw(sub)
        if draw(st.booleans()):
            base = f"({base})"
        return f"{base}^{draw(st.integers(0, 3))}"
    if kind == "parens":
        return f"({draw(sub)})"
    return f"{draw(st.sampled_from('+-'))}{draw(sub)}" if top else f"(-{draw(sub)})"
