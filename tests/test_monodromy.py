"""Cyclotomic-divisor arithmetic and the closed-form monodromy formulas.

The multiplicity oracle enumerates products of nontrivial roots of unity with
exact fractional angles; it never touches the divisor representation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrad.monodromy import (
    CycDivisor,
    KNotDividingD,
    NonIntegralResult,
    bp_charpoly,
    charpoly_product,
    divisor_degree,
    divisor_mul,
    factored_string,
    fermat_charpoly,
    fermat_mult_reference,
    lam,
    mu0_from_charpoly,
    mult_at_order,
    one,
    primitive_betti,
    support_orders,
    to_json_map,
    wh_charpoly,
)

from helpers import bp_tuples_up_to, brute_force_mult


class TestJoinProduct:
    def test_squared_elliptic_factor(self):
        d = divisor_mul(lam(3) - lam(1), lam(3) - lam(1))
        assert d == CycDivisor({3: 1, 1: 1})

    def test_identity_element(self):
        d = CycDivisor({6: 2, 1: -1})
        assert divisor_mul(d, lam(1)) == d

    def test_coprime_orders(self):
        d = divisor_mul(lam(3) - lam(1), lam(5) - lam(1))
        assert d == CycDivisor({15: 1, 5: -1, 3: -1, 1: 1})

    def test_product_polynomial_identity(self):
        assert charpoly_product([]) == one()
        node = CycDivisor({1: 1})
        assert charpoly_product([node, node, node]) == CycDivisor({1: 3})
        a3 = CycDivisor({4: 1, 2: -1, 1: 1})
        assert charpoly_product([a3]) == a3


class TestPurePowerFormula:
    def test_two_cubes(self):
        d = bp_charpoly([3, 3])
        assert d == CycDivisor({3: 1, 1: 1})
        assert mult_at_order(d, 1) == 2
        assert mult_at_order(d, 3) == 1

    def test_plane_node(self):
        assert bp_charpoly([2, 2]) == CycDivisor({1: 1})

    def test_e6_exponents(self):
        d = bp_charpoly([3, 4, 2])
        assert divisor_degree(d) == 6
        assert mult_at_order(d, 1) == 0

    def test_degree_is_product_of_decrements(self):
        for exps in [(2, 2), (3, 3), (2, 4), (2, 6, 2), (3, 4, 2), (5, 5)]:
            assert divisor_degree(bp_charpoly(exps)) == _prod(a - 1 for a in exps)

    def test_rejects_exponent_one(self):
        with pytest.raises(ValueError):
            bp_charpoly([1, 3])


def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


class TestWeightedHomogeneous:
    def test_consistency_with_pure_powers(self):
        assert wh_charpoly([Fraction(1, 3), Fraction(1, 3)]) == bp_charpoly([3, 3])

    def test_e8_weights(self):
        d = wh_charpoly([Fraction(1, 3), Fraction(1, 5)])
        assert d == CycDivisor({15: 1, 5: -1, 3: -1, 1: 1})
        assert divisor_degree(d) == 8

    def test_a3_weights(self):
        d = wh_charpoly([Fraction(1, 2), Fraction(1, 4)])
        assert d == CycDivisor({4: 1, 2: -1, 1: 1})
        assert divisor_degree(d) == 3

    def test_invalid_weights_rejected(self):
        with pytest.raises(NonIntegralResult):
            wh_charpoly([Fraction(2, 3), Fraction(2, 3)])
        with pytest.raises(ValueError):
            wh_charpoly([Fraction(3, 2)])


class TestFermatClosedForm:
    def test_plane_cusp_curve_case(self):
        assert fermat_charpoly(3, 2) == CycDivisor({3: 1, 1: 1})

    def test_surface_case_has_negative_exponent(self):
        d = fermat_charpoly(3, 3)
        assert d == CycDivisor({3: 3, 1: -1})
        assert mult_at_order(d, 1) == 2
        assert mult_at_order(d, 3) == 3
        assert factored_string(d) == "(t^3-1)^3*(t-1)^-1"

    def test_quadric_germ(self):
        for n in range(1, 5):
            assert divisor_degree(fermat_charpoly(2, n)) == 1

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_pure_powers_are_the_join_product_fold(self, exps):
        # bp_charpoly folds on plain integers; the CycDivisor fold is the
        # reference, and equal exponents are the Fermat closed form
        acc = lam(1)
        for a in exps:
            acc = divisor_mul(acc, lam(a) - lam(1))
        divisor = bp_charpoly(exps)
        assert divisor == acc and factored_string(divisor) == factored_string(acc)
        if len(set(exps)) == 1:
            assert divisor == fermat_charpoly(exps[0], len(exps))

    def test_matches_pure_power_route(self):
        for d in range(2, 7):
            for n in range(1, 5):
                assert fermat_charpoly(d, n) == bp_charpoly([d] * n)


class TestMultiplicities:
    def test_examples(self):
        d = CycDivisor({3: 1, 1: 1})
        assert mult_at_order(d, 1) == 2
        assert mult_at_order(d, 3) == 1
        assert mult_at_order(d, 7) == 0

    def test_brute_force_enumeration(self):
        tuples = [t for t in bp_tuples_up_to(200)]
        assert len(tuples) > 100
        for exps in tuples:
            d = bp_charpoly(exps)
            orders = set(support_orders(d)) | {1, 2, 7}
            for k in sorted(orders):
                assert mult_at_order(d, k) == brute_force_mult(list(exps), k), (
                    exps,
                    k,
                )

    def test_mu0_examples(self):
        assert mu0_from_charpoly(CycDivisor({1: 3})) == 3
        assert mu0_from_charpoly(bp_charpoly([3, 4, 2])) == 0
        assert mu0_from_charpoly(CycDivisor({4: 1, 2: -1, 1: 1})) == 1

    def test_ade_surface_germs_have_no_eigenvalue_one(self):
        for exps in [(2, 2, 2), (2, 3, 2), (2, 6, 2), (3, 4, 2), (3, 5, 2)]:
            assert mu0_from_charpoly(bp_charpoly(exps)) == 0

    def test_plane_node_has_eigenvalue_one(self):
        assert mu0_from_charpoly(bp_charpoly([2, 2])) == 1


class TestReferenceValues:
    def test_primitive_betti_examples(self):
        assert primitive_betti(3, 1) == 2
        assert primitive_betti(3, 0) == 2
        assert primitive_betti(3, 2) == 6
        for d in range(3, 10):
            assert primitive_betti(d, 1) == (d - 1) * (d - 2)

    def test_betti_telescoping(self):
        for d in range(2, 8):
            for m in range(1, 6):
                assert primitive_betti(d, m) + primitive_betti(d, m - 1) == (
                    d - 1
                ) ** (m + 1)

    def test_reference_multiplicities(self):
        assert fermat_mult_reference(3, 3, 3) == 3
        assert fermat_mult_reference(3, 3, 1) == 2
        assert fermat_mult_reference(3, 2, 3) == 1
        with pytest.raises(KNotDividingD):
            fermat_mult_reference(3, 3, 2)

    def test_reference_matches_closed_form(self):
        for d in range(2, 7):
            for n in range(2, 5):
                for k in range(1, d + 1):
                    if d % k:
                        continue
                    assert mult_at_order(
                        fermat_charpoly(d, n), k
                    ) == fermat_mult_reference(d, n, k)


class TestSerialization:
    def test_factored_string_round_shape(self):
        assert factored_string(one()) == "1"
        assert factored_string(CycDivisor({1: 2})) == "(t-1)^2"
        assert factored_string(CycDivisor({3: 3, 1: -1})) == "(t^3-1)^3*(t-1)^-1"

    def test_json_map(self):
        assert to_json_map(CycDivisor({3: 3, 1: -1})) == {"1": -1, "3": 3}

    def test_non_integral_rejected_at_exposure(self):
        d = CycDivisor({3: Fraction(1, 2)})
        with pytest.raises(NonIntegralResult):
            to_json_map(d)
        with pytest.raises(NonIntegralResult):
            mult_at_order(d, 1)
