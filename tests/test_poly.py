"""Polynomial kernel: parser, calculus, substitution, reducedness probe."""

import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polargrad import hypersurface
from polargrad.groebner import GREVLEX, Ideal, normal_form
from polargrad.parser import ParseError, UnknownVariable, parse_poly
from polargrad.poly import (
    NotHomogeneous,
    Poly,
    ProjectivePoint,
    Reducedness,
    SingularMatrix,
    ZeroPolynomial,
    dehomogenize,
    det_fraction,
    gradient,
    homogeneous_degree,
    poly_text,
    squarefree_probe,
    substitute_linear,
)
from polargrad.rng import SplitMix64

from helpers import (
    expression_texts,
    form_products,
    homogeneous_polys,
    invert_fraction_matrix,
    poly_pairs,
    polys,
    reference_parse_poly,
)

V2 = ("x", "y")
V3 = ("x", "y", "z")


def euler_holds(f: Poly) -> bool:
    """Whether sum_i x_i * df/dx_i equals deg(f) * f exactly."""
    acc = Poly.zero(f.vars)
    for i in range(len(f.vars)):
        acc = acc + Poly.variable(f.vars, i) * f.partial(i)
    return acc == f.scale(homogeneous_degree(f))


class TestParser:
    def test_fermat_cubic(self):
        f = parse_poly("x^3+y^3+z^3", V3)
        assert len(f.terms) == 3
        assert homogeneous_degree(f) == 3

    def test_cancellation_to_zero(self):
        f = parse_poly("x*y - x*y", V2)
        assert f.is_zero()
        assert f.terms == {}

    def test_binomial_expansion(self):
        f = parse_poly("x*(y+z)^2", V3)
        expected = parse_poly("x*y^2 + 2*x*y*z + x*z^2", V3)
        assert f == expected

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_poly("x + q", V2)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + ", V2)
        assert err.value.position == 4

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2 x", V2)
        with pytest.raises(ParseError):
            parse_poly("x y", V2)

    def test_signed_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^-2", V2)

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_poly_arithmetic_parser(self, data):
        # the same polynomial (coefficient types included), or the same
        # ParseError at the same position or the same max_degree ValueError,
        # as the parser on whole-Poly arithmetic
        names = data.draw(st.sampled_from((V2, V3)), label="vars")
        text = data.draw(expression_texts(names), label="text")
        if data.draw(st.booleans(), label="mutate"):
            # one character replaced or dropped: mostly syntax errors
            i = data.draw(st.integers(0, len(text)), label="at")
            new = data.draw(st.sampled_from(("", "+", "-", "*", "^", "(", ")", "/", "#", "x", "q", "0")))
            text = text[:i] + new + text[i + 1 :]
            assume(all(int(e) <= 3 for e in re.findall(r"\^\s*(\d+)", text)))
        cap = data.draw(st.one_of(st.none(), st.integers(0, 4)), label="max_degree")

        def outcome(parse):
            try:
                f = parse(text, names, max_degree=cap)
            except (ParseError, ValueError) as exc:
                return type(exc), str(exc), getattr(exc, "position", None)
            return f.vars, {m: (type(c), c) for m, c in f.terms.items()}

        assert outcome(parse_poly) == outcome(reference_parse_poly)

    def test_rational_coefficient(self):
        f = parse_poly("1/2*x + 3*y", V2)
        assert f.terms[(1, 0)] == Fraction(1, 2)

    @given(polys())
    def test_round_trip(self, p):
        assert parse_poly(poly_text(p), p.vars) == p


class TestConstruction:
    def test_term_containers_build_equal_polynomials(self):
        terms = {(2, 0): Fraction(3), (0, 1): -5, (0, 0): 7}
        from_dict = Poly(V2, terms)
        assert from_dict == Poly(V2, MappingProxyType(terms))
        assert from_dict == Poly(V2, list(terms.items()))
        assert from_dict == Poly(V2, iter(terms.items()))
        assert from_dict == parse_poly("3*x^2 - 5*y + 7", V2)

    def test_only_ints_and_fractions_are_coefficients(self):
        # a float or a string is refused, never read as a Fraction
        m = (1, 0)
        for bad in (0.5, "1"):
            with pytest.raises(TypeError):
                Poly(V2, {m: bad})
        f = parse_poly("x + 2*y", V2)
        with pytest.raises(TypeError):
            f.scale(0.5)
        with pytest.raises(TypeError):
            f.evaluate([0.5, 1])
        assert f.scale(2) == f.scale(Fraction(2)) and f.evaluate([1, Fraction(1, 2)]) == 2

    def test_matrices_and_points_take_only_ints_and_fractions(self):
        # substitute_linear, det_fraction and ProjectivePoint refuse what Poly
        # refuses, and read ints and Fractions as before
        f = parse_poly("x^2 + y^2", V2)
        for bad in (0.1, "1/3"):
            with pytest.raises(TypeError):
                substitute_linear(f, [[bad, 0], [0, 1]])
            with pytest.raises(TypeError):
                det_fraction([[bad, 0], [0, 1]])
            with pytest.raises(TypeError):
                ProjectivePoint((bad, 1))
        third = Fraction(1, 3)
        assert substitute_linear(f, [[third, 0], [0, 1]]) == parse_poly("1/9*x^2 + y^2", V2)
        assert substitute_linear(f, [[2, 1], [0, 1]]) == parse_poly("4*x^2 + 4*x*y + 2*y^2", V2)
        assert det_fraction([[third, 1], [0, 3]]) == 1 and det_fraction([[2, 1], [4, 2]]) == 0
        assert ProjectivePoint((third, 2)).coords == (Fraction(1, 6), 1)
        assert str(ProjectivePoint((2, 4))) == "(1/2 : 1)"

    @given(form_products(), st.lists(st.integers(-5, 5), min_size=3, max_size=3), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_every_coefficient_is_a_fraction(self, case, row, k):
        # f, grad f, an affine model, a reduced basis and a remainder, each
        # built from int input, hold Fractions only
        f, _ = case
        row, k = row[: len(f.vars)], k % len(f.vars)
        assume(row[0] != 0)
        h = hypersurface._affine_model(f, hypersurface._frame_matrix(row, k))
        built = [f, *gradient(f), h, *Ideal(gradient(f)).basis]
        built.append(normal_form(f, [f.partial(0)], GREVLEX))
        assert all(type(c) is Fraction for g in built for c in g.terms.values())


class TestCalculus:
    def test_partial_examples(self):
        xyz = parse_poly("x*y*z", V3)
        assert xyz.partial(0) == parse_poly("y*z", V3)
        fermat = parse_poly("x^3+y^3+z^3", V3)
        assert fermat.partial(1) == parse_poly("3*y^2", V3)
        const = parse_poly("7", V3)
        assert const.partial(0).is_zero()

    @given(polys(), polys())
    def test_partial_linearity_and_leibniz(self, p, q):
        assume(p.vars == q.vars)
        for i in range(len(p.vars)):
            assert (p + q).partial(i) == p.partial(i) + q.partial(i)
            assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)

    def test_gradient_examples(self):
        xyz = parse_poly("x*y*z", V3)
        assert gradient(xyz) == (
            parse_poly("y*z", V3),
            parse_poly("x*z", V3),
            parse_poly("x*y", V3),
        )
        sq = parse_poly("x^2 + y^2", V2)
        assert gradient(sq) == (parse_poly("2*x", V2), parse_poly("2*y", V2))
        pure = parse_poly("x^5", V3)
        grads = gradient(pure)
        assert grads[0] == parse_poly("5*x^4", V3)
        assert grads[1].is_zero() and grads[2].is_zero()

    def test_homogeneous_degree(self):
        assert homogeneous_degree(parse_poly("x*y*z", V3)) == 3
        assert homogeneous_degree(parse_poly("x^5", V3)) == 5
        with pytest.raises(NotHomogeneous) as err:
            homogeneous_degree(parse_poly("x^2 + y", V2))
        assert err.value.offending is not None
        with pytest.raises(ZeroPolynomial):
            homogeneous_degree(Poly.zero(V2))

    def test_euler_examples(self):
        assert euler_holds(parse_poly("x^2*y", V2))
        assert euler_holds(parse_poly("x^3+y^3+z^3", V3))

    @given(homogeneous_polys())
    @settings(max_examples=120)
    def test_euler_identity_holds_universally(self, f):
        assume(not f.is_zero())
        assert euler_holds(f)

    @given(poly_pairs())
    def test_evaluation_is_ring_homomorphism(self, data):
        p, q, point = data
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


class TestSubstitution:
    def test_identity(self):
        f = parse_poly("x^2*y - z^3", V3)
        ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert substitute_linear(f, ident) == f

    def test_swap(self):
        f = parse_poly("x", V2)
        swap = [[0, 1], [1, 0]]
        assert substitute_linear(f, swap) == parse_poly("y", V2)

    def test_singular_matrix_rejected(self):
        f = parse_poly("x + y", V2)
        with pytest.raises(SingularMatrix):
            substitute_linear(f, [[1, 1], [1, 1]])

    def test_degree_preserved_for_random_matrices(self):
        rng = SplitMix64(7)
        f = parse_poly("x^3 + x*y*z + z^3", V3)
        count = 0
        while count < 20:
            M = [list(rng.int_vector(3, -5, 5)) for _ in range(3)]
            try:
                g = substitute_linear(f, M)
            except SingularMatrix:
                continue
            count += 1
            assert g.degree() == f.degree()

    def test_inverse_composition_is_identity(self):
        rng = SplitMix64(11)
        f = parse_poly("x^2*y + 3*y^2*z - z^3", V3)
        count = 0
        while count < 5:
            M = [list(rng.int_vector(3, -4, 4)) for _ in range(3)]
            try:
                g = substitute_linear(f, M)
            except SingularMatrix:
                continue
            count += 1
            Minv = invert_fraction_matrix(M)
            assert substitute_linear(g, Minv) == f

    def test_composition_law(self):
        f = parse_poly("x^2 + y*z", V3)
        M = [[1, 2, 0], [0, 1, 0], [1, 0, 1]]
        N = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
        MN = [
            [sum(M[i][k] * N[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert substitute_linear(f, MN) == substitute_linear(
            substitute_linear(f, M), N
        )


class TestDehomogenize:
    def test_examples(self):
        assert dehomogenize(parse_poly("x*y*z", V3), 0) == parse_poly("y*z", ("y", "z"))
        f = dehomogenize(parse_poly("x^3 + y^3 + z^3", V3), 0)
        assert f == parse_poly("1 + y^3 + z^3", ("y", "z"))

    def test_degree_drop_iff_divisible(self):
        f = parse_poly("x*y^2", V3)  # every term divisible by x
        assert dehomogenize(f, 0).degree() < f.degree()
        g = parse_poly("x*y^2 + z^3", V3)
        assert dehomogenize(g, 0).degree() == g.degree()


class TestProjectivePoint:
    def test_normalization_idempotent(self):
        p = ProjectivePoint((Fraction(2), Fraction(4), Fraction(2)))
        assert p.coords == (1, 2, 1)
        assert ProjectivePoint(p.coords) == p

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0, 0))

    def test_chart_and_affine_coords(self):
        p = ProjectivePoint((Fraction(3), Fraction(1), Fraction(0)))
        assert p.chart() == 1
        assert p.affine_coords() == (3, 0)


class TestSquarefreeProbe:
    def test_square_factor_always_detected(self):
        f = parse_poly("x^2*y", V3)
        for seed in range(5):
            assert squarefree_probe(f, seed=seed) is Reducedness.NOT_REDUCED

    def test_triangle_is_reduced(self):
        assert (
            squarefree_probe(parse_poly("x*y*z", V3)) is Reducedness.PROBABLY_REDUCED
        )

    def test_smooth_fermat_is_reduced(self):
        f = parse_poly("x^3+y^3+z^3", V3)
        assert squarefree_probe(f) is Reducedness.PROBABLY_REDUCED
