"""Hypersurface analysis: Jacobian scheme, singular points, local Milnor
numbers, certified frames and the critical-multiplicity split."""

from fractions import Fraction
from itertools import combinations_with_replacement
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polargrad.groebner as groebner
import polargrad.hypersurface as hypersurface
from polargrad.catalog import BY_NAME, CATALOG
from polargrad.groebner import (
    GREVLEX,
    Ideal,
    NotZeroDimensional,
    normal_form,
    projective_dim,
    quotient_vs_dim,
)
from polargrad.hypersurface import (
    NotACriticalPoint,
    NotIsolated,
    SingularityRecord,
    TransversalityNotFound,
    frame_split,
    generic_frame,
    has_isolated_singularities,
    jacobian_ideal,
    local_milnor_number,
    mu_summary,
    rational_singular_points,
    tame_split,
)
from polargrad.monodromy import bp_charpoly
from polargrad.parser import parse_poly
from polargrad.polar import polar_degree_fiber_oracle
from polargrad.poly import (
    Poly,
    ProjectivePoint,
    dehomogenize,
    det_fraction,
    gradient,
    homogeneous_degree,
    substitute_linear,
)
from polargrad.rng import SplitMix64

from helpers import (
    form_products,
    fraction_rank,
    frame_certificates,
    homogeneous_polys,
    lex_singular_points,
    record_pair_loops,
    reference_generic_frame,
    saturation_local_dim,
    tjurina_complete,
)

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("w", "x", "y", "z")

XYZ = parse_poly("x*y*z", V3)
FERMAT = parse_poly("x^3 + y^3 + z^3", V3)
CONIC_TANGENT = parse_poly("x*(x*z - y^2)", V3)
E6_CUBIC = parse_poly("x^2*w + x*z^2 + y^3", V4)
A1A5_CUBIC = parse_poly("w*x*z - w*y^2 + z^3", V4)

# every analyzable catalog entry, plus inputs with irrational singular points
# (the first three) and the Cayley cubic with four rational nodes
COMPLETENESS_INPUTS = [(e.text, e.vars) for e in CATALOG if not e.oracle_only] + [
    ("(x*z - 2*y^2)*(x - z)", V3),
    ("y*(x*z - 2*y^2)*(x - z)", V3),
    ("x^3+y^3+z^3-3*x*y*z", V3),
    ("w*x*y + w*x*z + w*y*z + x*y*z", V4),
]


class TestJacobian:
    def test_examples(self):
        J = jacobian_ideal(XYZ)
        assert set(J.gens) == {
            parse_poly("y*z", V3),
            parse_poly("x*z", V3),
            parse_poly("x*y", V3),
        }
        J = jacobian_ideal(FERMAT)
        assert set(J.gens) == {
            parse_poly("3*x^2", V3),
            parse_poly("3*y^2", V3),
            parse_poly("3*z^2", V3),
        }
        J = jacobian_ideal(parse_poly("x^4", V3))
        assert J.gens == (parse_poly("4*x^3", V3),)


class TestIsolatedness:
    def test_smooth(self):
        assert has_isolated_singularities(FERMAT)

    def test_triangle(self):
        assert has_isolated_singularities(XYZ)
        assert projective_dim(jacobian_ideal(XYZ)) == 0

    def test_double_line_rejected(self):
        f = parse_poly("x^2*y", V3)
        assert not has_isolated_singularities(f)


def frame_points(f, seed=1):
    """The rational singular points and their Milnor numbers read off the
    algebra of the frame of `seed`."""
    return rational_singular_points(generic_frame(f, seed))


class TestRationalSingularPoints:
    def test_triangle(self):
        pts = frame_points(XYZ)
        assert {str(p): mu for p, mu in pts.items()} == {
            "(1 : 0 : 0)": 1, "(0 : 1 : 0)": 1, "(0 : 0 : 1)": 1
        }
        assert list(pts) == lex_singular_points(XYZ)
        assert mu_summary(XYZ, 1).complete

    def test_smooth_is_empty(self):
        assert frame_points(FERMAT) == {} and lex_singular_points(FERMAT) == []
        assert mu_summary(FERMAT, 1).complete

    def test_conic_tangent(self):
        assert {str(p): mu for p, mu in frame_points(CONIC_TANGENT).items()} == {"(0 : 0 : 1)": 3}
        assert [str(p) for p in lex_singular_points(CONIC_TANGENT)] == ["(0 : 0 : 1)"]
        assert mu_summary(CONIC_TANGENT, 1).complete

    def test_irrational_points_flagged(self):
        # conic { xz = 2y^2 } plus the line { x = z } meet at the conjugate
        # pair (1 : ±1/sqrt(2) : 1); the enumeration finds no rational point
        # and the summary must declare itself incomplete
        f = parse_poly("(x*z - 2*y^2)*(x - z)", V3)
        assert frame_points(f) == {} and lex_singular_points(f) == []
        s = mu_summary(f, 1)
        assert s.mu_on == 2 and not s.complete

    def test_non_isolated_rejected(self):
        f = parse_poly("x^2*y", V3)
        with pytest.raises(NotIsolated):
            lex_singular_points(f)
        with pytest.raises(NotIsolated):
            mu_summary(f, 1)

    @given(form_products(nvs=(2, 3), count=(1, 3)), st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_the_frame_finds_the_lex_points(self, case, seed):
        # the same points and Milnor numbers under the frames of s and s + 1
        f, _ = case
        assume(has_isolated_singularities(f))
        pts = frame_points(f, seed)
        assert list(pts) == lex_singular_points(f)
        assert frame_points(f, seed + 1) == pts


class TestUnivariate:
    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.tuples(
                st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k),
                st.lists(st.integers(-3, 3), min_size=k, max_size=k),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_annihilator_is_the_minimal_polynomial_of_the_vector(self, case):
        R, v = case
        coeffs = hypersurface._annihilator(v, R)
        while coeffs[-1] == 0:
            coeffs.pop()
        k = len(v)
        powers = [[Fraction(x) for x in v]]
        for _ in range(k):
            powers.append([sum(powers[-1][i] * R[i][j] for i in range(k)) for j in range(k)])
        # p(R) annihilates v, and v, vR, ..., vR^(deg p - 1) are independent,
        # so no polynomial of lower degree does
        assert all(sum(c * w[j] for c, w in zip(coeffs, powers)) == 0 for j in range(k))
        assert fraction_rank(powers[: len(coeffs) - 1]) == len(coeffs) - 1 == fraction_rank(powers)

    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=4),
        st.sampled_from(([1], [2, 0, -1], [1, 1, 1])),
    )
    @settings(max_examples=100, deadline=None)
    def test_rational_roots_of_a_product(self, roots, rest):
        # prod (t - r) times a factor with no rational root
        coeffs = [Fraction(c) for c in rest]
        for r in roots:
            coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
        assert hypersurface._rational_roots(coeffs) == sorted(set(roots))


class TestLocalMilnor:
    def test_node(self):
        h = parse_poly("x^2 + y^2", V2)
        assert local_milnor_number(h, (Fraction(0), Fraction(0))) == 1

    def test_tacnode(self):
        h = parse_poly("x^2 + y^4", V2)
        assert local_milnor_number(h, (Fraction(0), Fraction(0))) == 3

    def test_e6_normal_form(self):
        h = parse_poly("x^3 + y^4 + z^2", V3)
        assert local_milnor_number(h, (Fraction(0),) * 3) == 6

    def test_weight_formula_on_normal_forms(self):
        # mu equals the product of (1/w_i - 1) for weighted-homogeneous germs
        cases = [
            ("x^2 + y^2", V2, [Fraction(1, 2)] * 2, 1),  # A1
            ("x^2 + y^4", V2, [Fraction(1, 2), Fraction(1, 4)], 3),  # A3
            ("x^2 + y^7", V2, [Fraction(1, 2), Fraction(1, 7)], 6),  # A6
            ("x^3 + y^4 + z^2", V3, [Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)], 6),
        ]
        for text, vars, weights, expected in cases:
            h = parse_poly(text, vars)
            origin = (Fraction(0),) * len(vars)
            mu = local_milnor_number(h, origin)
            formula = 1
            for w in weights:
                formula *= int(1 / w - 1)
            assert mu == expected == formula

    def test_off_origin_point(self):
        h = parse_poly("(x - 1)^2 + (y - 2)^4", V2)
        assert local_milnor_number(h, (Fraction(1), Fraction(2))) == 3

    def test_not_a_critical_point(self):
        h = parse_poly("x^2 + y^2", V2)
        with pytest.raises(NotACriticalPoint):
            local_milnor_number(h, (Fraction(1), Fraction(0)))

    def test_non_isolated_critical_point(self):
        h = parse_poly("x^2", V2)
        with pytest.raises(NotIsolated):
            local_milnor_number(h, (Fraction(0), Fraction(0)))

    def test_invariance_under_coordinate_changes(self):
        h = parse_poly("x^2 + y^4", V2)
        rng = SplitMix64(23)
        count = 0
        while count < 5:
            M = [list(rng.int_vector(2, -3, 3)) for _ in range(2)]
            if det_fraction(M) == 0:
                continue
            count += 1
            g = substitute_linear(h, M)  # fixes the origin
            assert local_milnor_number(g, (Fraction(0), Fraction(0))) == 3


class _FirstDraw:
    """Stand-in for the frame rng: its first draw is the row, and every later
    draw is the zero row, which `generic_frame` skips (its a_0 is 0)."""

    def __init__(self, row):
        self.row = tuple(row)

    def int_vector(self, n, lo, hi):
        row, self.row = self.row, (0,) * n
        return row


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def no_chart():
    """`generic_frame` with the chart's pre-check failing: random frames only."""
    return patch.object(hypersurface, "_chart_may_certify", lambda f, k, d: False)


def frame_from_first_draw(f, row):
    """`generic_frame` with no chart and the row as its first draw; the frame
    of that row is accepted exactly when the model comes back with
    draws == 1."""
    with patch.object(hypersurface, "SplitMix64", lambda seed: _FirstDraw(row)), no_chart():
        return generic_frame(f, seed=1)


def chart_matrix(nv, k):
    """The frame of the coordinate chart x_k = 0."""
    return hypersurface._frame_matrix([int(j == 0) for j in range(nv)], k)


def signed_row(row):
    """An echelon row with its first nonzero entry positive."""
    return row if next(x for x in row if x) > 0 else [-x for x in row]


# the inputs of the benchmark's smooth and singular workloads, with mu(V)
BENCHMARK_FRAME_INPUTS = [
    (entry.text, entry.vars, entry.mu)
    for entry in CATALOG
    if not entry.oracle_only
] + [
    ("x^3 + y^3 + z^3 + x*y*z", V3, 0),
    ("x^4 + y^4 + z^4", V3, 0),
    ("x^2*z - y^3", V3, 2),
    ("y^2*z - x^3 - x^2*z", V3, 1),
    ("x*y*z*(x + y + z)", V3, 6),
]


@st.composite
def nearly_diagonal_forms(draw):
    """c_0 x_0^d + ... + c_n x_n^d plus up to three more terms of degree d,
    all coefficients in [-3, 3]: smooth as drawn unless the extra terms make
    it singular."""
    nv = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.integers(2, 3 if nv == 4 else 4))
    names = (V2, V3, V4)[nv - 2]
    terms = {
        tuple(d * (k == i) for k in range(nv)): draw(st.integers(1, 3)) * draw(st.sampled_from((-1, 1)))
        for i in range(nv)
    }
    monos = [tuple(combo.count(i) for i in range(nv)) for combo in combinations_with_replacement(range(nv), d)]
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.sampled_from(monos))
        terms[m] = terms.get(m, 0) + draw(st.integers(-3, 3))
    return Poly(names, terms)


@st.composite
def forms_singular_at_a_vertex(draw):
    """(f, seed): a cubic or quartic in 3 or 4 variables, singular at the
    vertex e_k, with c_i x_i^d for every i != k and up to three more terms
    of degree at most d - 2 in x_k, coefficients in [-3, 3]; the seed's
    chart is x_k = 0, which misses e_k."""
    nv = draw(st.sampled_from((3, 4)))
    d = draw(st.integers(3, 4 if nv == 3 else 3))
    k = draw(st.integers(0, nv - 1))
    terms = {
        tuple(d * (j == i) for j in range(nv)): draw(st.integers(1, 3)) * draw(st.sampled_from((-1, 1)))
        for i in range(nv)
        if i != k
    }
    monos = [tuple(combo.count(i) for i in range(nv)) for combo in combinations_with_replacement(range(nv), d)]
    for m in draw(st.lists(st.sampled_from([m for m in monos if m[k] <= d - 2]), max_size=3)):
        terms[m] = terms.get(m, 0) + draw(st.integers(-3, 3))
    return Poly((V3, V4)[nv - 3], terms), k + 1


@st.composite
def sparse_and_dense_forms(draw):
    """Forms of degree 2-4 in 3 or 4 variables with coefficients in [-3, 3]:
    every monomial, or at most n + 3 of them."""
    nv = draw(st.sampled_from((3, 4)))
    d = draw(st.integers(2, 4 if nv == 3 else 3))
    monos = [tuple(combo.count(i) for i in range(nv)) for combo in combinations_with_replacement(range(nv), d)]
    if draw(st.booleans()):
        monos = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=nv + 2, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    f = Poly((V3, V4)[nv - 3], dict(zip(monos, coeffs)))
    assume(not f.is_zero())
    return f


class TestGenericFrame:
    def test_fermat_accepts_quickly(self):
        with no_chart():
            model = generic_frame(FERMAT, seed=1)
        assert model.draws >= 1
        # one random row over the identity rows: det M = a_0
        assert model.matrix == hypersurface._frame_matrix(model.matrix[0], 0)
        assert det_fraction(model.matrix) == model.matrix[0][0] != 0
        assert homogeneous_degree(model.f) == 3
        assert len(model.h.vars) == 2

    def test_fermat_takes_its_chart_first(self):
        # the pre-check passes and the chart x_0 = 0 certifies: no random draw
        model = generic_frame(FERMAT, seed=1)
        assert model.draws == 1 and model.matrix == chart_matrix(3, 0) == IDENTITY

    def test_the_frame_matrix_puts_the_row_in_row_k(self):
        assert hypersurface._frame_matrix((2, 3, 4), 1) == ((0, 1, 0), (2, 3, 4), (0, 0, 1))
        assert chart_matrix(3, 2) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_a_failed_chart_is_counted_in_the_draws(self):
        # the chart x_0 = 0 of the triangle counts 1, not 4, and every random
        # row is the zero row: the error names all 1 + MAX_FRAME_DRAWS draws
        chart = patch.object(hypersurface, "_chart_may_certify", lambda f, k, d: True)
        zero_rows = patch.object(hypersurface, "SplitMix64", lambda seed: _FirstDraw((0, 0, 0)))
        draws = hypersurface.MAX_FRAME_DRAWS + 1
        with chart, zero_rows, pytest.raises(TransversalityNotFound, match=f"after {draws} draws"):
            generic_frame(XYZ, seed=1)

    def test_identity_would_be_acceptable_for_fermat(self):
        # h = 1 + y^3 + z^3 has (3-1)^2 critical points counted with multiplicity
        assert quotient_vs_dim(jacobian_ideal(dehomogenize(FERMAT, 0))) == 4
        model = frame_from_first_draw(FERMAT, IDENTITY[0])
        assert model.draws == 1 and model.matrix == IDENTITY
        assert tame_split(model) == (0, 4)

    def test_a_count_below_the_bound_is_rejected(self):
        # the identity keeps the side x = 0 of the triangle at infinity:
        # h = y*z has one critical point, not (3-1)^2 = 4
        assert quotient_vs_dim(jacobian_ideal(dehomogenize(XYZ, 0))) == 1
        with pytest.raises(TransversalityNotFound):
            frame_from_first_draw(XYZ, IDENTITY[0])

    def test_a_positive_dimensional_critical_scheme_is_rejected(self):
        # under the identity h = y^2*z vanishes with its gradient on the
        # double line y = 0; the draw is rejected, not an error, and the
        # frame search ends in NotIsolated
        f = parse_poly("y^2*z", V3)
        with pytest.raises(NotZeroDimensional):
            quotient_vs_dim(jacobian_ideal(dehomogenize(f, 0)))
        with pytest.raises(NotIsolated):
            frame_from_first_draw(f, IDENTITY[0])

    def test_a_row_with_a_0_zero_is_rejected(self):
        # the row (0, 1, 1) gives det M = 0, yet its h = (y+z)^3 + y^3 + z^3
        # has the full count (3-1)^2 = 4
        h = parse_poly("(y+z)^3 + y^3 + z^3", V3[1:])
        assert quotient_vs_dim(jacobian_ideal(h)) == 4
        with pytest.raises(TransversalityNotFound):
            frame_from_first_draw(FERMAT, (0, 1, 1))

    @given(form_products(nvs=(2, 3, 4)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_the_count_accepts_exactly_the_certified_draws(self, case, data):
        f, _ = case
        nv = len(f.vars)
        row = data.draw(st.tuples(*[st.integers(-1, 1)] * nv), label="row")
        assume(row[0] != 0)
        try:
            accepted = frame_from_first_draw(f, row).draws == 1
        except (NotIsolated, TransversalityNotFound):
            accepted = False
        assert accepted == frame_certificates(substitute_linear(f, hypersurface._frame_matrix(row, 0)))

    @given(homogeneous_polys(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_affine_model_is_f_in_the_frame_at_y0_1(self, f, data):
        nv = len(f.vars)
        row = data.draw(st.tuples(*[st.integers(-5, 5)] * nv), label="row")
        k = data.draw(st.integers(0, nv - 1), label="k")
        assume(row[0] != 0)
        M = hypersurface._frame_matrix(row, k)
        assert hypersurface._affine_model(f, M) == dehomogenize(substitute_linear(f, M), 0)

    @given(sparse_and_dense_forms())
    @settings(max_examples=60, deadline=None)
    def test_a_skipped_chart_falls_short_of_the_count(self, f):
        # the pre-check skips a chart only where its count must fail
        d, nv = homogeneous_degree(f), len(f.vars)
        for k in range(nv):
            if hypersurface._chart_may_certify(f, k, d):
                continue
            h = hypersurface._affine_model(f, chart_matrix(nv, k))
            J = Ideal(gradient(h), GREVLEX, vars=h.vars)
            try:
                assert quotient_vs_dim(J) < (d - 1) ** (nv - 1), k
            except NotZeroDimensional:
                pass

    @given(
        st.one_of(
            st.tuples(nearly_diagonal_forms(), st.integers(1, 4)),
            forms_singular_at_a_vertex(),
        )
    )
    @example((parse_poly("x*y*z + x^3 + y^3", V3), 3))  # a node at (0:0:1)
    @example((parse_poly("w*x*y + x^3 + y^3 + z^3", V4), 1))  # an A2 at (1:0:0:0)
    @settings(max_examples=60, deadline=None)
    def test_a_chart_and_a_random_frame_agree(self, case):
        # mu_on, mu_off and the points with their mu_p do not depend on the
        # certified frame; the chart's S is the stable image of M_h itself
        f, seed = case
        try:
            chart = mu_summary(f, seed)
            with no_chart():
                drawn = mu_summary(f, seed)
        except (NotIsolated, TransversalityNotFound):
            assume(False)
        model = chart.model
        assume(model.matrix == chart_matrix(len(f.vars), (seed - 1) % len(f.vars)))
        assert model.draws == 1 and drawn.model.matrix != model.matrix
        assert (chart.mu_on, chart.mu_off, chart.local_mu, chart.complete) == (
            drawn.mu_on,
            drawn.mu_off,
            drawn.local_mu,
            drawn.complete,
        )
        of_h = groebner._stable_image(groebner._scaled_matrix(model.critical_ideal, model.h)[1])
        assert sorted(map(signed_row, model.off_fiber)) == sorted(map(signed_row, of_h))

    def test_the_benchmark_inputs_take_or_skip_the_chart(self, monkeypatch):
        # the smooth inputs certify the chart x_0 = 0 at seed 1; the singular
        # ones each have a singular coordinate vertex, so the pre-check
        # skips the chart and their frames are the random ones
        verdicts, models = [], []
        real_check, real_frame = hypersurface._chart_may_certify, hypersurface.generic_frame
        monkeypatch.setattr(
            hypersurface,
            "_chart_may_certify",
            lambda f, k, d: verdicts.append(real_check(f, k, d)) or verdicts[-1],
        )
        monkeypatch.setattr(
            hypersurface, "generic_frame", lambda *a: models.append(real_frame(*a)) or models[-1]
        )
        for text, vars, mu in BENCHMARK_FRAME_INPUTS:
            f = parse_poly(text, vars)
            verdicts.clear()
            models.clear()
            summary = mu_summary(f, 1)
            assert summary.mu_on == mu, text
            if mu:
                assert verdicts == [False], text
                with no_chart():
                    assert generic_frame(f, 1) == summary.model, text
            else:
                assert verdicts == [True], text
                assert summary.model.draws == 1 and summary.model.matrix == chart_matrix(len(vars), 0)
            assert models == [summary.model]

    def test_each_draw_builds_one_basis(self, monkeypatch):
        calls = []
        real = groebner.buchberger_run

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger_run", counting)
        draws = []
        # seed 6 rejects its first draw for the five-node quartic
        for name in ("five-node-quartic", "e6-cubic", "cremona-triangle"):
            entry = BY_NAME[name]
            f = parse_poly(entry.text, entry.vars)
            for seed in (1, 6):
                calls.clear()
                model = generic_frame(f, seed)
                tame_split(model)
                assert len(calls) == model.draws, (name, seed)
                draws.append(model.draws)
        assert max(draws) == 2

    def test_draws_with_a_singular_vertex_at_infinity_build_no_basis(self, monkeypatch):
        # a row with a_i = 0 puts e_i at infinity; where grad f(e_i) = 0 the
        # draw is rejected with no basis, and every frame and draw count is
        # that of certifying every draw.  Seed 4 rejects draws on five
        # catalog entries this way
        calls, real = [], groebner.buchberger_run
        monkeypatch.setattr(groebner, "buchberger_run", lambda *a, **k: calls.append(1) or real(*a, **k))
        bases, certified = [0] * 9, [0] * 9
        for text, vars, _ in BENCHMARK_FRAME_INPUTS:
            f = parse_poly(text, vars)
            for seed in range(1, 9):
                calls.clear()
                model = generic_frame(f, seed)
                made = len(calls)
                matrix, draws, count = reference_generic_frame(f, seed)
                assert (model.matrix, model.draws) == (matrix, draws), (text, seed)
                assert made <= count, (text, seed)
                bases[seed] += made
                certified[seed] += count
        assert bases[4] < certified[4]

    def test_counts_read_the_run_alone(self, monkeypatch):
        # oracle cone ideals and rejected draws never inter-reduce nor build
        # a Poly; an accepted frame's count, algebra and basis share one
        # pair loop, as do a count and a basis of any ideal
        finished, built = [], []
        real_finish, real_polys = groebner._inter_reduce, groebner._Run.polys
        loops = record_pair_loops(monkeypatch)
        monkeypatch.setattr(groebner, "_inter_reduce", lambda r: finished.append(r) or real_finish(r))
        monkeypatch.setattr(groebner._Run, "polys", lambda r: built.append(r) or real_polys(r))
        entry = BY_NAME["five-node-quartic"]
        f = parse_poly(entry.text, entry.vars)
        assert polar_degree_fiber_oracle(f, seed=1).value == 4
        assert len(loops) == 3 and finished == built == []
        # targets 2 and 3 follow target 1's schedule
        assert [(run is None, followed) for _, run, followed in loops] == [
            (False, False), (False, True), (False, True)
        ]
        loops.clear()
        model = generic_frame(f, 6)  # rejects its first draw
        assert model.draws == 2 and len(loops) == 2 and finished == built == []
        assert len(rational_singular_points(model)) == 5
        I = model.critical_ideal
        basis = I.basis
        assert len(loops) == 2 and finished == [loops[1][1]] and built == [I.reduced]
        assert I.basis is basis
        loops.clear()
        J = Ideal(gradient(model.h))
        assert quotient_vs_dim(J) == 9 and J.basis == basis
        assert len(loops) == 1

    def test_triangle_frame_moves_points_off_infinity(self):
        model = generic_frame(XYZ, seed=1)
        fM = substitute_linear(XYZ, model.matrix)
        pts = lex_singular_points(fM)
        assert len(pts) == 3 and tjurina_complete(fM)
        # no singular point on the hyperplane x_0 = 0
        assert all(p.coords[0] != 0 for p in pts)

    def test_e6_frame(self):
        model = generic_frame(E6_CUBIC, seed=1)
        fM = substitute_linear(E6_CUBIC, model.matrix)
        pts = lex_singular_points(fM)
        assert len(pts) == 1 and tjurina_complete(fM)
        assert pts[0].coords[0] != 0

    def test_non_isolated_rejected(self):
        with pytest.raises(NotIsolated):
            generic_frame(parse_poly("x^2*y", V3), seed=1)


class TestTameSplit:
    def test_fermat_plane_cubic(self):
        model = generic_frame(FERMAT, seed=1)
        assert tame_split(model) == (0, 4)

    def test_triangle(self):
        model = generic_frame(XYZ, seed=1)
        assert tame_split(model) == (3, 1)

    def test_e6_surface(self):
        model = generic_frame(E6_CUBIC, seed=1)
        assert tame_split(model) == (6, 2)

    def test_one_stable_image_of_h_per_frame(self, monkeypatch):
        # the split and the points step share S, built once per frame on the
        # whole algebra (dimension 4); the points step works on A/S (3)
        sizes = []
        real = hypersurface._stable_image

        def imaging(rows):
            sizes.append(len(rows))
            return real(rows)

        monkeypatch.setattr(hypersurface, "_stable_image", imaging)
        model = generic_frame(XYZ, seed=1)
        assert tame_split(model) == (3, 1)
        assert sum(rational_singular_points(model).values()) == 3
        assert tame_split(model) == (3, 1)
        assert sizes.count(4) == 1 and set(sizes) == {3, 4}

    @given(
        st.one_of(
            homogeneous_polys(max_vars=3, max_degree=5),
            form_products(nvs=(2, 3, 4)).map(lambda case: case[0]),
        ),
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_euler_identity_modulo_grad_h(self, f, row, k):
        # d*h = a_0*g + sum_i y_i dh/dy_i for g the affine model of f_k, on
        # any row with a_0 != 0 put in any row k, certified or not
        row, k = row[: len(f.vars)], k % len(f.vars)
        assume(f.degree() >= 1 and row[0] != 0)
        h = hypersurface._affine_model(f, hypersurface._frame_matrix(row, k))
        g = hypersurface._affine_model(f.partial(k), hypersurface._frame_matrix(row, k))
        rest = h.scale(f.degree()) - g.scale(row[0])
        partials = [p for p in gradient(h) if not p.is_zero()]
        if partials:
            rest = normal_form(rest, Ideal(partials, GREVLEX).basis, GREVLEX)
        assert rest.is_zero()

    @given(form_products(nvs=(2, 3, 4)), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    @example((FERMAT, False), [1, 0, 0, 0])  # a_1 = 0: f_1 is in (grad h)
    @example((CONIC_TANGENT, False), [2, 1, -3, 0])  # f_0(1, y) is not zero at the A3 point
    @settings(max_examples=40, deadline=None)
    def test_off_fiber_is_the_stable_image_of_h(self, case, row):
        # S is built from M_g, which is (d/a_0) M_h on the algebra; the
        # reduced echelon rows of one subspace agree up to sign
        f, _ = case
        row = row[: len(f.vars)]
        assume(row[0] != 0)
        try:
            model = frame_from_first_draw(f, row)
        except (NotIsolated, TransversalityNotFound):
            assume(False)
        assume(model.draws == 1)
        I = model.critical_ideal
        of_h = groebner._stable_image(groebner._scaled_matrix(I, model.h)[1])
        assert sorted(map(signed_row, model.off_fiber)) == sorted(map(signed_row, of_h))

    def test_split_sums_to_expected_total(self):
        for f, n in [(XYZ, 2), (CONIC_TANGENT, 2), (A1A5_CUBIC, 3)]:
            d = homogeneous_degree(f)
            model = generic_frame(f, seed=3)
            mu_on, mu_off = tame_split(model)
            assert mu_on >= 0 and mu_off >= 0
            assert mu_on + mu_off == (d - 1) ** n


class TestMuSummary:
    def test_triangle_cross_check(self):
        s = mu_summary(XYZ, 1)
        assert s.mu_on == 3 and s.mu_off == 1 and s.complete
        assert sum(s.local_mu.values()) == 3

    def test_mu_invariant_across_frames(self):
        for f, expected in [(XYZ, 3), (CONIC_TANGENT, 3), (E6_CUBIC, 6)]:
            values = {mu_summary(f, seed).mu_on for seed in (1, 2, 3)}
            assert values == {expected}

    def test_fermat(self):
        assert mu_summary(FERMAT, 1).mu_on == 0

    def test_a1a5(self):
        s = mu_summary(A1A5_CUBIC, 1)
        assert s.mu_on == 6
        assert sorted(s.local_mu.values()) == [1, 5]

    @pytest.mark.parametrize(
        "text,vars", COMPLETENESS_INPUTS, ids=[t for t, _ in COMPLETENESS_INPUTS]
    )
    def test_completeness_agrees_with_the_tjurina_degree(self, text, vars):
        f = parse_poly(text, vars)
        assert mu_summary(f, 1).complete == tjurina_complete(f)

    @pytest.mark.parametrize(
        "text,expected",
        [
            # four concurrent lines and a fifth: mu = 9 where they meet
            (
                "x*y*(x-y)*(x-2*y)*z",
                {(0, 0, 1): 9, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1, (2, 1, 0): 1},
            ),
            # an irreducible quintic with two unibranch singularities
            ("y^2*z^3 - x^5", {(0, 0, 1): 4, (0, 1, 0): 8}),
        ],
        ids=["four-concurrent-lines-and-a-line", "cusp-quintic"],
    )
    def test_high_mu_quintics(self, text, expected):
        f = parse_poly(text, V3)
        s = mu_summary(f, 1)
        assert {pt.coords: mu for pt, mu in s.local_mu.items()} == expected
        assert s.complete and s.mu_on == sum(expected.values())
        for pt, mu in s.local_mu.items():
            chart_h = dehomogenize(f, pt.chart())
            assert mu == saturation_local_dim(gradient(chart_h), pt.affine_coords()), pt

    @given(form_products(nvs=(2, 3), count=(1, 3)), st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_one_row_frames_against_saturation(self, case, seed):
        # each mu_p read off the frame equals the double saturation of the
        # gradient in the point's own chart; the split covers (d-1)^n, and
        # mu_on does not depend on the frame
        f, _ = case
        assume(has_isolated_singularities(f))
        s = mu_summary(f, seed)
        n = len(f.vars) - 1
        assert s.mu_on + s.mu_off == (homogeneous_degree(f) - 1) ** n
        for pt, mu in s.local_mu.items():
            chart_h = dehomogenize(f, pt.chart())
            assert mu == saturation_local_dim(gradient(chart_h), pt.affine_coords()), pt
        assert mu_summary(f, seed + 1).mu_on == s.mu_on

    @given(nearly_diagonal_forms(), st.integers(1, 100))
    @example(FERMAT, 1)
    @settings(max_examples=60, deadline=None)
    def test_a_smooth_split_equals_the_stable_image_split(self, f, seed):
        # an empty Jacobian scheme proves mu(V) = 0; the stable image of M_g
        # on the frame's algebra, the full route, is the independent oracle
        assume(projective_dim(jacobian_ideal(f)) == -1)
        try:
            full = frame_split(f, seed)
        except TransversalityNotFound:
            assume(False)
        assert frame_split(f, seed, smooth=True) == full
        assert full[1] == 0

    def test_frame_split_is_the_frame_step_of_the_summary(self):
        for f in (XYZ, CONIC_TANGENT, A1A5_CUBIC):
            s = mu_summary(f, 1)
            assert frame_split(f, 1) == (s.model, s.mu_on, s.mu_off)


class TestSingularityRecord:
    def test_mu0_is_read_off_the_divisor_only(self):
        pt, a3 = ProjectivePoint([Fraction(0), Fraction(0), Fraction(1)]), bp_charpoly([2, 4])
        assert SingularityRecord(pt, 3, "A3", a3).mu0 == 1  # the tacnode of conic-tangent
        assert SingularityRecord(pt, 3).mu0 is None
        with pytest.raises(ValueError, match="does not match the Milnor number 2"):
            SingularityRecord(pt, 2, delta=a3)
        with pytest.raises(TypeError):
            SingularityRecord(pt, 3, mu0=1)
