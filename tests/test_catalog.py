"""Catalog provenance: the declared singularity types are re-derived here.

Corank of the Hessian plus the Milnor number pins down the A-series germs
(corank 1, mu = k gives A_k; full-rank quadratic part gives a node), and the
E6 chart germ is reduced to a pure-power form by an explicit shear, so every
declared pure-power exponent tuple in the catalog is certified, not assumed.
"""

from fractions import Fraction

from polargrad.catalog import BY_NAME
from polargrad.hypersurface import local_milnor_number
from polargrad.monodromy import bp_charpoly, wh_charpoly
from polargrad.parser import parse_poly
from polargrad.poly import Poly, ProjectivePoint, dehomogenize

from helpers import fraction_rank


def hessian_rank(h: Poly, point) -> int:
    n = len(h.vars)
    rows = []
    for i in range(n):
        hi = h.partial(i)
        rows.append([Fraction(hi.partial(j).evaluate(point)) for j in range(n)])
    return fraction_rank(rows)


def chart_germ(entry_name: str, which: int = 0) -> tuple[Poly, tuple[Fraction, ...]]:
    entry = BY_NAME[entry_name]
    f = parse_poly(entry.text, entry.vars)
    point = ProjectivePoint([Fraction(c) for c in entry.singularities[which].point])
    return dehomogenize(f, point.chart()), point.affine_coords()


class TestNodeEntries:
    def test_triangle_nodes_are_morse(self):
        for which in range(3):
            h, a = chart_germ("cremona-triangle", which)
            assert hessian_rank(h, a) == 2  # full rank in two variables
            assert local_milnor_number(h, a) == 1

    def test_quartic_nodes_are_morse(self):
        for which in range(5):
            h, a = chart_germ("five-node-quartic", which)
            assert hessian_rank(h, a) == 2
            assert local_milnor_number(h, a) == 1


class TestASeriesEntries:
    def test_conic_tangent_is_a3(self):
        h, a = chart_germ("conic-tangent")
        # corank one in two variables plus mu = 3 forces the A3 germ
        assert hessian_rank(h, a) == 1
        assert local_milnor_number(h, a) == 3
        entry = BY_NAME["conic-tangent"]
        assert bp_charpoly(entry.singularities[0].bp_exponents) == bp_charpoly([2, 4])

    def test_a5_point(self):
        h, a = chart_germ("a1a5-cubic", 0)
        # corank one in three variables plus mu = 5 forces the A5 germ
        assert hessian_rank(h, a) == 2
        assert local_milnor_number(h, a) == 5

    def test_a1_point(self):
        h, a = chart_germ("a1a5-cubic", 1)
        assert hessian_rank(h, a) == 3
        assert local_milnor_number(h, a) == 1


class TestE6Entry:
    def test_shear_reduces_to_pure_power_form(self):
        # the chart germ x^2 + x z^2 + y^3 becomes x^2 + y^3 - (1/4) z^4
        # after x -> x - z^2/2, an exact polynomial change of coordinates
        h, a = chart_germ("e6-cubic")
        assert a == (Fraction(0),) * 3
        vars = h.vars
        x = Poly.variable(vars, 0)
        y = Poly.variable(vars, 1)
        z = Poly.variable(vars, 2)
        sheared = h.subs([x - (z * z).scale(Fraction(1, 2)), y, z])
        expected = x * x + y**3 - (z**4).scale(Fraction(1, 4))
        assert sheared == expected

    def test_weights_give_the_declared_divisor(self):
        # x^2 + y^3 + c*z^4 is weighted homogeneous with weights (1/2,1/3,1/4)
        # for any nonzero c, so the monodromy divisor is the pure-power one
        weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
        assert wh_charpoly(weights) == bp_charpoly([2, 3, 4])
        entry = BY_NAME["e6-cubic"]
        assert bp_charpoly(entry.singularities[0].bp_exponents) == bp_charpoly(
            [2, 3, 4]
        )

    def test_milnor_number(self):
        h, a = chart_germ("e6-cubic")
        assert local_milnor_number(h, a) == 6
