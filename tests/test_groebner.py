"""Groebner engine: division, Buchberger, elimination, saturation, staircase.

Cross-checks: quotient dimensions against a Macaulay-matrix rank oracle,
saturations against the extra-variable construction, and the Buchberger
criterion as a post-hoc test on computed bases.
"""

import ast
import math
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from polargrad import groebner
from polargrad.groebner import (
    GREVLEX,
    LEX,
    Caps,
    GroebnerError,
    Ideal,
    NotZeroDimensional,
    ResourceLimit,
    TermOrder,
    _scaled_matrix,
    buchberger,
    elimination_order,
    exact_div,
    hilbert_numerator,
    ideal_quotient,
    intersect,
    leading_monomial,
    local_component_dim,
    normal_form,
    projective_dim,
    quotient_vs_dim,
    s_polynomial,
    saturate,
    saturate_ideal,
    staircase,
    zero_dim_degree_projective,
)
from polargrad.parser import parse_poly
from polargrad.poly import DomainMismatch, Poly, mono_divides, mono_mul

import helpers
from helpers import (
    fraction_rank,
    macaulay_quotient_dim,
    polys,
    rabinowitsch_saturate,
    random_zero_dim_ideal,
    reference_buchberger,
    reference_normal_form,
    reference_echelon,
    reference_multiplication_matrix,
    reference_stable_image,
    reference_staircase,
)

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("w", "x", "y", "z")


def P(text, vars=V3):
    return parse_poly(text, vars)


def _reference_key(order, m):
    """The term-order key written out from the definition of each order."""
    sig = order.perm if order.perm is not None else tuple(range(len(m)))

    def grevlex(sig):
        return (sum(m[i] for i in sig), tuple(-m[i] for i in reversed(sig)))

    if order.kind == "grevlex":
        return grevlex(sig)
    if order.kind == "lex":
        return tuple(m[i] for i in sig)
    k = order.block_size or 0
    return (grevlex(sig[:k]), grevlex(sig[k:]))


@st.composite
def term_orders(draw, n):
    """Every kind of term order on n variables, with and without a perm."""
    perm = tuple(draw(st.permutations(range(n))))
    split = draw(st.integers(0, n))
    return draw(
        st.sampled_from(
            [
                GREVLEX,
                LEX,
                TermOrder("grevlex", perm=perm),
                TermOrder("lex", perm=perm),
                elimination_order(perm[:split], perm[split:]),
                TermOrder("block", block_size=1),
            ]
        )
    )


@st.composite
def orders_and_monomials(draw, max_exp=4):
    n = draw(st.integers(1, 5))
    order = draw(term_orders(n))
    monos = draw(
        st.lists(st.tuples(*[st.integers(0, max_exp)] * n), min_size=1, max_size=12, unique=True)
    )
    return order, monos


class TestTermOrder:
    @given(orders_and_monomials())
    @settings(max_examples=200, deadline=None)
    def test_keys_match_the_definition(self, case):
        order, monos = case
        expected = sorted(monos, key=lambda m: _reference_key(order, m))
        assert sorted(monos, key=order.key) == expected

    def test_unknown_kind_is_rejected_when_built(self):
        with pytest.raises(ValueError):
            TermOrder("bogus")

    def test_equality_and_pickling_ignore_the_keys(self):
        order = elimination_order((2,), (0, 1))
        assert order == TermOrder("block", perm=(2, 0, 1), block_size=1)
        assert hash(order) == hash(TermOrder("block", perm=(2, 0, 1), block_size=1))
        assert order != elimination_order((0,), (1, 2))


class TestPackedMonomials:
    """`groebner._Packing` against the tuple definitions, up to the largest
    degree a width holds: the packed ints sort like `_reference_key`, the
    guard test agrees with `mono_divides`, a product packs to the sum of the
    ints, and unpacking gives the monomial back."""

    @given(orders_and_monomials(max_exp=40), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_packing_against_the_tuple_definitions(self, case, spare):
        order, monos = case
        n = len(monos[0])
        # the narrowest width that holds every drawn degree, or a little more,
        # and each variable's pure power of the largest degree it holds
        bits = max(sum(m) for m in monos).bit_length() + spare
        top = (1 << bits) - 1
        monos = list(dict.fromkeys(monos + [tuple(top * (j == i) for j in range(n)) for i in range(n)]))
        packing = groebner._Packing(order, n, bits)
        packed = {m: packing.pack(m) for m in monos}
        assert sorted(monos, key=packed.get) == sorted(monos, key=lambda m: _reference_key(order, m))
        for a in monos:
            assert packing.unpack(packed[a]) == a
            assert packing.top_degree([(packed[a], 1)]) == sum(a)
            for b in monos:
                assert (not (packed[b] - packed[a]) & packing.guard) == mono_divides(a, b)
                ab = mono_mul(a, b)
                if sum(ab) <= top:
                    assert packing.pack(ab) == packed[a] + packed[b]
                    assert not (packed[a] + packed[b] - packed[a]) & packing.guard


SMALL_COEFFICIENTS = st.fractions(min_value=-5, max_value=5, max_denominator=4)

# numerators up to 2^70 and denominators up to 2^40, of either sign: cleared
# of their denominators, leads are far from 1 and the reduction kernel scales
WIDE_COEFFICIENTS = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40))


@st.composite
def division_cases(draw, coeffs=SMALL_COEFFICIENTS):
    """An order, divisors (some may be zero) and a dividend that is a sum of
    multiples of them plus a remainder, in at most four variables."""
    n = draw(st.integers(1, 4))
    order = draw(term_orders(n))

    def poly(max_terms):
        monos = st.tuples(*[st.integers(0, 4)] * n)
        return Poly(V4[:n], draw(st.lists(st.tuples(monos, coeffs), max_size=max_terms)))

    divisors = [poly(4) for _ in range(draw(st.integers(1, 4)))]
    p = poly(4)
    for g in divisors:
        p = p + poly(3) * g
    return order, p, divisors


def _outcome(reduce, p, divisors, order, caps=groebner.DEFAULT_CAPS):
    """The remainder as a list of terms in its dict order, or
    "ResourceLimit"."""
    try:
        r = reduce(p, divisors, order, caps)
    except ResourceLimit:
        return "ResourceLimit"
    return list(r.terms.items())


class TestPackedDivision:
    """`normal_form` on packed monomials against the tuple-monomial division
    it replaced (`helpers.reference_divmod`): the same remainder, term for
    term in the same dict order, so everything built on it is
    byte-identical."""

    @given(division_cases())
    @settings(max_examples=100, deadline=None)
    def test_divmod_matches_the_tuple_reference(self, case):
        order, p, divisors = case
        assert _outcome(normal_form, p, divisors, order) == _outcome(reference_normal_form, p, divisors, order)

    @given(division_cases(WIDE_COEFFICIENTS))
    @settings(max_examples=100, deadline=None)
    def test_wide_coefficients_match_the_tuple_reference(self, case):
        # the integer kernel scales the remainder by the divisors' leads; the
        # division over QQ must not see it
        order, p, divisors = case
        assert _outcome(normal_form, p, divisors, order) == _outcome(reference_normal_form, p, divisors, order)

    @pytest.mark.parametrize("caps", [Caps(max_degree=4), Caps(max_degree=10_000)], ids=["cap4", "cap10000"])
    @pytest.mark.parametrize(
        "order", [GREVLEX, LEX, TermOrder("lex", perm=(1, 0)), elimination_order((1,), (0,))],
        ids=["grevlex", "lex", "lex-yx", "block-y"],
    )
    def test_inputs_far_above_the_cap(self, caps, order):
        # divisors and dividends of degree up to 84 against a cap of 4, and a
        # cap of 10000 that sets the field width instead of the inputs
        cases = [
            ("x^45 + x*y^3", ["x^40 - y"]),
            ("x^83*y + y^2", ["x^40 - y", "y^3 - x"]),
            ("x^3*y^2 + 1", ["x^40 - y", "x*y - 1"]),
            ("x^2*y^2 - x", ["x*y - 1", "x^40 - y"]),
        ]
        for p, divisors in cases:
            p, divisors = P(p, V2), [P(g, V2) for g in divisors]
            expected = _outcome(reference_normal_form, p, divisors, order, caps)
            assert _outcome(normal_form, p, divisors, order, caps) == expected

    @pytest.mark.parametrize("caps", [Caps(max_degree=4), Caps(max_degree=10_000)], ids=["cap4", "cap10000"])
    @pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order((1,), (0, 2))], ids=["grevlex", "lex", "block-y"])
    def test_buchberger_with_a_generator_above_the_cap(self, caps, order):
        # buchberger takes generators above the cap; its basis, or the cap it
        # trips, is the same as on tuple monomials
        gens = [P("x^40 - y"), P("x*y - z"), P("y*z^2 - 1")]
        assert _basis_outcome(buchberger, gens, order, caps) == _basis_outcome(
            reference_buchberger, gens, order, caps
        )


def _basis_outcome(run, gens, order, caps=groebner.DEFAULT_CAPS):
    """The basis as lists of terms in descending order, or the
    `ResourceLimit` message."""
    try:
        basis = run(gens, order, caps)
    except ResourceLimit as e:
        return str(e)
    return [sorted(p.terms.items(), key=lambda t: order.key(t[0]), reverse=True) for p in basis]


@contextmanager
def _counting(module, name):
    """Count the calls of module.name made while the block runs."""
    counts = {name: 0}
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield counts
    finally:
        setattr(module, name, original)


@st.composite
def buchberger_cases(draw, coeffs=SMALL_COEFFICIENTS):
    """An order, generators and caps in at most four variables.  Two
    generators may share a lead, and a degree cap near the generators'
    degrees lets S-polynomials climb above the cap, under lex even when they
    then reduce below it."""
    n = draw(st.integers(1, 4))
    order = draw(term_orders(n))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = coeffs.filter(bool)

    def poly(max_terms):
        return Poly(V4[:n], draw(st.lists(st.tuples(monos, coeffs), min_size=1, max_size=max_terms)))

    # two to n + 1 generators, some with a common factor, so that few ideals
    # are principal or the unit ideal
    gens = [poly(3) for _ in range(draw(st.integers(2, n + 1)))]
    if draw(st.integers(0, 3)) == 0:
        factor = poly(2)
        gens = [g * factor for g in gens]
    if draw(st.booleans()) and not gens[0].is_zero():
        # another generator with the lead of the first and a lower tail
        lead = leading_monomial(gens[0], order)
        below = [(m, c) for m, c in poly(3).terms.items() if order.key(m) < order.key(lead)]
        gens.append(Poly(V4[:n], [(lead, draw(coeffs))] + below))
    # a degree cap at or just above the largest generator degree sets the
    # packing's width, and S-polynomials and reductions climb past it; at
    # least 1, as caps below 1 are rejected and every generator may be constant
    top = max(1, *(g.degree() for g in gens))
    caps = Caps(
        max_basis=draw(st.sampled_from([6, 25])),
        max_degree=draw(st.sampled_from([top, top + 1, top + 2, 120])),
    )
    return order, gens, caps


class TestPackedBuchberger:
    """`buchberger`, whose pair loop runs on packed monomials, against the
    tuple-monomial run it replaced (`helpers.reference_buchberger`): the same
    basis, term for term, or the same `ResourceLimit` message; and the same
    number of S-polynomials reduced."""

    def _check(self, gens, order, caps):
        with _counting(groebner, "_s_remainder") as packed:
            outcome = _basis_outcome(buchberger, gens, order, caps)
        with _counting(helpers, "s_polynomial") as tuples:
            assert outcome == _basis_outcome(reference_buchberger, gens, order, caps)
        assert packed["_s_remainder"] == tuples["s_polynomial"]
        return outcome

    @given(buchberger_cases())
    @settings(max_examples=200, deadline=None)
    def test_basis_matches_the_tuple_reference(self, case):
        order, gens, caps = case
        self._check(gens, order, caps)

    @given(buchberger_cases(WIDE_COEFFICIENTS))
    @settings(max_examples=60, deadline=None)
    def test_wide_coefficients_match_the_tuple_reference(self, case):
        order, gens, caps = case
        self._check(gens, order, caps)

    def test_s_polynomials_above_the_cap(self, monkeypatch):
        # under lex these S-polynomials reach degree 9 and 10, above the caps
        # of 8 and 7, and still reduce to a basis within them
        cases = [
            (["2*y^3 + 1", "x*z^3 - y*z^2", "x^3*y^2*z^3 - x^3*y^2 + 2*y^2*z"], 8),
            (["x^3*y^3 - x^3*y^2 - x*y^2*z", "x^2*y^3*z^2 - y^3"], 7),
        ]
        degrees = []

        def spoly(f, g, order):
            s = s_polynomial(f, g, order)
            degrees.append(s.degree())
            return s

        for texts, cap in cases:
            gens = [P(t) for t in texts]
            degrees.clear()
            monkeypatch.setattr(helpers, "s_polynomial", spoly)
            reference_buchberger(gens, LEX, Caps(max_degree=cap))
            monkeypatch.undo()
            assert max(degrees) > cap
            assert not isinstance(self._check(gens, LEX, Caps(max_degree=cap)), str)


class TestFractionFreeKernel:
    """`_reduce_terms` runs on Python ints: every `Fraction` is cleared on
    the way in and rebuilt on the way out."""

    GENS = ("3/2*x^3 - 5*y*z^2", "7*y^3 - 2/3*x^2*z", "x*y*z - 4/5*z^3")
    DIVIDEND = "1/7*x^4*y - 3*z^5 + 2/9*x*y + 5/4"

    def _run(self, monkeypatch):
        """(coefficients received, coefficients returned, factor) of every
        kernel call of a `buchberger` and a `normal_form`."""
        seen = []
        original = groebner._reduce_terms

        def spy(work, by_lead, packing, caps):
            received = list(work.values())
            for lc, _, tail in by_lead.values():
                received += [lc, *(c for _, c in tail)]
            remainder, factor = original(work, by_lead, packing, caps)
            seen.append((received, list(remainder.values()), factor))
            return remainder, factor

        gens, p = [P(t) for t in self.GENS], P(self.DIVIDEND)
        monkeypatch.setattr(groebner, "_reduce_terms", spy)
        basis = buchberger(gens)
        remainder = normal_form(p, basis, GREVLEX)
        monkeypatch.undo()
        expected = _basis_outcome(reference_buchberger, gens, GREVLEX)
        assert _basis_outcome(buchberger, gens, GREVLEX) == expected
        assert remainder == reference_normal_form(p, basis, GREVLEX)
        return seen

    def test_only_ints_over_the_rationals(self, monkeypatch):
        seen = self._run(monkeypatch)
        assert len(seen) > 3
        for received, returned, factor in seen:
            assert all(type(c) is int for c in received + returned)
            assert type(factor) is int and factor > 0
        assert any(factor > 1 for *_, factor in seen)  # the kernel did scale


class TestLeadingMonomial:
    def test_cached_lead_follows_the_order(self):
        p = P("x*z^3 + y^4 + x*y + z^5")
        elim = elimination_order((0,), (1, 2))
        seen = []
        for order in (GREVLEX, LEX, elim, GREVLEX):
            lt = leading_monomial(p, order)
            assert lt == max(p.terms, key=order.key)
            seen.append(lt)
        assert seen == [(0, 0, 5), (1, 1, 0), (1, 0, 3), (0, 0, 5)]


class TestNormalForm:
    def test_examples(self):
        assert normal_form(P("x^2"), [P("x")], GREVLEX).is_zero()
        assert normal_form(P("x + y"), [P("x")], GREVLEX) == P("y")

    def test_membership_via_reduced_basis(self):
        gens = [P("x^2 - y*z"), P("x*y - z^2")]
        basis = Ideal(gens).basis
        for g in gens:
            assert normal_form(g, basis, GREVLEX).is_zero()

    @given(polys(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_div_inverts_a_product(self, q, data):
        # long division by g's lead gives q back from q*g, and refuses
        # q*g + r for a nonzero r none of whose terms g's lead divides
        nv = len(q.vars)
        g = data.draw(polys(min_vars=nv, max_vars=nv, allow_zero=False), label="g")
        assume(not g.is_zero())
        order = data.draw(term_orders(nv), label="order")
        assert exact_div(q * g, g, order) == q
        lt = leading_monomial(g, order)
        r = data.draw(polys(min_vars=nv, max_vars=nv), label="r")
        r = Poly(r.vars, {m: c for m, c in r.terms.items() if not mono_divides(lt, m)})
        if not r.is_zero():
            with pytest.raises(GroebnerError, match="nonzero remainder"):
                exact_div(q * g + r, g, order)


class TestBuchberger:
    def test_already_a_basis(self):
        basis = buchberger([P("x", V2), P("y", V2)])
        assert {leading_monomial(g, GREVLEX) for g in basis} == {(1, 0), (0, 1)}

    def test_spoly_creates_y_cubed(self):
        basis = buchberger([P("x^2", V2), P("x*y + y^2", V2)])
        lts = {leading_monomial(g, GREVLEX) for g in basis}
        assert lts == {(2, 0), (1, 1), (0, 3)}

    def test_lex_elimination_univariate(self):
        basis = buchberger([P("x - y^2", V2), P("y - x^2", V2)], LEX)
        univariate = [g for g in basis if all(m[0] == 0 for m in g.terms)]
        assert len(univariate) == 1
        assert univariate[0] == P("y^4 - y", V2)

    def test_idempotent(self):
        gens = [P("x^2 - y*z"), P("x*y - z^2"), P("x*z - y^2")]
        basis = buchberger(gens)
        assert buchberger(basis) == basis

    def test_input_order_irrelevant(self):
        gens = [P("x^2 - y*z"), P("x*y - z^2"), P("x*z - y^2")]
        assert buchberger(gens) == buchberger(list(reversed(gens)))

    def test_all_spolys_reduce_to_zero(self):
        for gens in (
            [P("x^2", V2), P("x*y + y^2", V2)],
            [P("x^2 - y*z"), P("x*y - z^2")],
            [P("y*z"), P("x*z"), P("x*y")],
        ):
            basis = buchberger(gens)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j], GREVLEX)
                    assert normal_form(s, basis, GREVLEX).is_zero()

    def test_resource_caps_fail_loudly(self):
        gens = [P("x^5 - y*z^4"), P("x*y^4 - z^5"), P("x^4*z - y^5")]
        with pytest.raises(ResourceLimit):
            buchberger(gens, GREVLEX, Caps(max_basis=2, max_degree=120))

    def test_caps_trip_at_the_same_basis_size(self):
        gens = [P("x^5 - y*z^4"), P("x*y^4 - z^5"), P("x^4*z - y^5")]
        for order, last_tripped in ((GREVLEX, 2), (LEX, 6)):
            for k in range(1, last_tripped + 1):
                with pytest.raises(ResourceLimit):
                    buchberger(gens, order, Caps(max_basis=k, max_degree=120))
            buchberger(gens, order, Caps(max_basis=last_tripped + 1, max_degree=120))

    @given(polys(max_vars=2, max_exp=3, max_terms=3))
    @settings(max_examples=30, deadline=None)
    def test_buchberger_criterion_on_random_pairs(self, p):
        assume(not p.is_zero())
        q = p.partial(0) + p.partial(1)
        gens = [g for g in (p, q) if not g.is_zero()]
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j], GREVLEX)
                assert normal_form(s, basis, GREVLEX).is_zero()
        for g in gens:
            assert normal_form(g, basis, GREVLEX).is_zero()

    def test_arbitrary_precision_coefficients(self):
        big = 10**40
        f = P(f"{big}*x + 1", V2)
        g = f * f * f
        assert g.terms[(3, 0)] == big**3  # no overflow, exact integers


class TestCaps:
    """Caps travel with an Ideal: every ideal derived from it and every
    Groebner step run for it keep them, and no module holds caps of its own."""

    GENS = ("x^3 - y*z^2", "y^3 - x^2*z", "x*y*z - z^3")

    @pytest.mark.parametrize(
        "operation",
        [
            lambda I: intersect(I, Ideal([P("x*y - z^2"), P("x^2 + y^2 + z^2")])),
            lambda I: ideal_quotient(I, P("x + y")),
            lambda I: saturate(I, P("z")),
        ],
        ids=["intersect", "ideal_quotient", "saturate"],
    )
    def test_derived_operations_keep_the_caps(self, operation):
        # eight basis elements hold the reduced basis of I itself, but not
        # the bases of the derived ideals
        capped = Ideal([P(t) for t in self.GENS], caps=Caps(max_basis=8))
        assert len(capped.basis) <= 8
        with pytest.raises(ResourceLimit):
            operation(capped)
        operation(Ideal([P(t) for t in self.GENS]))

    def test_multiplication_matrix_keeps_the_caps(self):
        # the basis has degree 2, but reducing x^3*y^3 times a standard
        # monomial passes through degree 5
        gens = [P("x^2 - y", V2), P("y^2 - 1", V2)]
        capped = Ideal(gens, caps=Caps(max_degree=3))
        assert len(capped.basis) == 2
        with pytest.raises(ResourceLimit):
            _scaled_matrix(capped, P("x^3*y^3", V2))
        std, _, _ = _scaled_matrix(Ideal(gens), P("x^3*y^3", V2))
        assert len(std) == 4

    def test_exact_div_keeps_the_caps(self):
        # ideal_quotient divides with its ideal's caps
        p, g = P("x^4 - y^4", V2), P("x - y", V2)
        with pytest.raises(ResourceLimit):
            exact_div(p, g, GREVLEX, Caps(max_degree=3))
        assert exact_div(p, g) == P("x^3 + x^2*y + x*y^2 + y^3", V2)

    def test_no_global_statement_in_the_package(self):
        package = Path(groebner.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Global)
        ]
        assert found == []


class TestPairOrder:
    """The pair selection fixes how many S-polynomials Buchberger forms and
    reduces; these counts pin it.  `_s_remainder` reduces one S-polynomial,
    and `_reduce_terms` runs every reduction: those of the S-polynomials and
    those of the final inter-reduction."""

    def _count(self, monkeypatch, run):
        counts = {"_s_remainder": 0, "_reduce_terms": 0}
        for name in counts:
            original = getattr(groebner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(groebner, name, counted)
        result = run()
        monkeypatch.undo()
        return counts, result

    def test_counts_over_the_rationals(self, monkeypatch):
        gens = [P("x^5 - y*z^4"), P("x*y^4 - z^5"), P("x^4*z - y^5")]
        for order, spolys, reductions, size in ((GREVLEX, 2, 5, 3), (LEX, 10, 17, 7)):
            counts, basis = self._count(monkeypatch, lambda: buchberger(gens, order))
            assert counts == {"_s_remainder": spolys, "_reduce_terms": reductions}
            assert len(basis) == size

    def test_counts_of_an_intersection(self, monkeypatch):
        I = Ideal([P(t) for t in ("x^3 - y*z^2", "y^3 - x^2*z", "x*y*z - z^3")])
        J = Ideal([P(t) for t in ("x*y - z^2", "x^2 + y^2 + z^2")])
        counts, K = self._count(monkeypatch, lambda: intersect(I, J))
        assert counts == {"_s_remainder": 46, "_reduce_terms": 78}
        assert len(K.gens) == 9


class TestQuotientAndSaturation:
    def test_quotient_examples(self):
        assert ideal_quotient(Ideal([P("x^2")]), P("x")) == Ideal([P("x")])
        assert ideal_quotient(Ideal([P("x*y"), P("x*z")]), P("x")) == Ideal(
            [P("y"), P("z")]
        )
        assert ideal_quotient(Ideal([P("x")]), P("y")) == Ideal([P("x")])

    def test_saturate_examples_with_exponent(self):
        S, n = saturate(Ideal([P("x*y"), P("x*z")]), P("x"))
        assert S == Ideal([P("y"), P("z")]) and n == 1
        S, n = saturate(Ideal([P("x^2")]), P("x"))
        assert S.is_unit() and n == 2
        S, n = saturate(Ideal([P("y")]), P("x"))
        assert S == Ideal([P("y")]) and n == 0

    def test_saturation_certificate(self):
        I = Ideal([P("x^2*y"), P("x*z^2")])
        g = P("x")
        S, n = saturate(I, g)
        gn = g**n
        for h in S.gens:
            assert I.contains(gn * h)

    def test_saturate_ideal_examples(self):
        I = Ideal([P("x*y"), P("x*z")])
        assert saturate_ideal(I, Ideal([P("x")])) == Ideal([P("y"), P("z")])
        K = Ideal([P("x^2 - y*z")])
        assert saturate_ideal(K, Ideal([P("1")])) == K

    def test_saturate_ideal_removes_only_common_zeros(self):
        # no primary component of (x^2 y) is supported inside V(x, y), so the
        # saturation leaves the ideal unchanged; saturating by (x*y) instead
        # wipes both components
        J = Ideal([P("x^2*y")])
        assert saturate_ideal(J, Ideal([P("x"), P("y")])) == J
        assert saturate_ideal(Ideal([P("x^2*y^2")]), Ideal([P("x*y")])).is_unit()

    def test_saturate_ideal_is_stable(self):
        I = Ideal([P("x^2*y"), P("x*z^2"), P("y^2*z")])
        J = Ideal([P("x"), P("y")])
        S = saturate_ideal(I, J)
        assert saturate_ideal(S, J) == S

    def test_rabinowitsch_cross_check(self):
        cases = [
            (Ideal([P("x^2*y"), P("x*z^2")]), P("x")),
            (Ideal([P("x*y"), P("x*z")]), P("x")),
            (Ideal([P("x^2 - y*z"), P("x*y^2")]), P("y")),
            (Ideal([P("x^3")]), P("x")),
        ]
        for I, g in cases:
            assert saturate(I, g)[0] == rabinowitsch_saturate(I, g)


@st.composite
def monomial_ideals(draw):
    """A term order and a monomial set in one to four variables: sometimes
    empty (the zero ideal), holding 1 (the unit ideal), or topped up with a
    pure power of every variable (a finite staircase)."""
    n = draw(st.integers(1, 4))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=7))
    if draw(st.booleans()):
        monos += [tuple(draw(st.integers(1, 4)) if k == i else 0 for k in range(n)) for i in range(n)]
    return draw(term_orders(n)), V4[:n], monos


class TestStaircaseInvariants:
    @given(monomial_ideals())
    @settings(max_examples=200, deadline=None)
    def test_packed_staircase_matches_the_box_walk(self, case):
        order, names, monos = case
        I = Ideal([Poly(names, {m: 1}) for m in monos], order, vars=names)
        report = staircase(I)
        got = (report.lead_monomials, report.standard_monomials, report.krull_dim)
        assert got == reference_staircase(monos, len(names))
        assert I.is_unit() == (report.krull_dim == -1)

    def test_projective_dim_examples(self):
        fermat_jac = Ideal([P("3*x^2"), P("3*y^2"), P("3*z^2")])
        assert projective_dim(fermat_jac) == -1
        corner = Ideal([P("y*z"), P("x*z"), P("x*y")])
        assert projective_dim(corner) == 0
        line = Ideal([P("x")])
        assert projective_dim(line) == 1

    def test_quotient_vs_dim_examples(self):
        I = Ideal([parse_poly("x^2", V2), parse_poly("y^2", V2)])
        assert quotient_vs_dim(I) == 4
        report = staircase(I)
        assert set(report.standard_monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert quotient_vs_dim(Ideal([parse_poly("x^2", V2), parse_poly("y", V2)])) == 2
        assert quotient_vs_dim(Ideal([parse_poly("x", V2), parse_poly("y", V2)])) == 1

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensional):
            quotient_vs_dim(Ideal([parse_poly("x", V2)]))

    def test_projective_degree_examples(self):
        corner = Ideal([P("y*z"), P("x*z"), P("x*y")])
        assert zero_dim_degree_projective(corner) == 3
        double = Ideal([P("x^2"), P("y")])
        assert zero_dim_degree_projective(double) == 2
        point = Ideal([P("x"), P("y")])
        assert zero_dim_degree_projective(point) == 1

    def test_hilbert_numerator_corner_points(self):
        num = hilbert_numerator([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        assert num == [1, 0, -3, 2]

    def test_macaulay_rank_oracle(self):
        checked = 0
        seed = 1000
        while checked < 10:
            seed += 1
            nv = 2 + (seed % 2)
            gens = random_zero_dim_ideal(seed, nv)
            I = Ideal(gens)
            dim = quotient_vs_dim(I)
            report = staircase(I)
            bound = max(
                (sum(m) for m in report.standard_monomials), default=0
            ) + max(g.degree() for g in gens) + 1
            assert macaulay_quotient_dim(list(gens), bound) == dim
            checked += 1


# a polynomial in at most three variables as (monomial, coefficient) pairs,
# cut to the ring of the ideal it multiplies
TERMS = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3).filter(bool)),
    min_size=1,
    max_size=3,
)


class TestMultiplicationMatrix:
    """Multiplication by g on k[x]/I acts on the local algebra at each point p
    as g(p) plus a nilpotent, so its stable image is k[x]/(I : g^inf)
    (Stickelberger), and `local_component_dim(I, forms)` is what the stable
    images of the forms leave of k[x]/I.  Checked against the extra-variable
    saturation and `saturate_ideal`, and the standard monomials against the
    Macaulay rank.  The coefficients are rational only; p names that case."""

    @pytest.mark.parametrize("p", [None])
    @given(seed=st.integers(0, 10**6), nv=st.integers(2, 3), g_terms=TERMS,
           constant=st.integers(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_stable_rank_is_the_saturation_dimension(self, p, seed, nv, g_terms, constant):
        gens = random_zero_dim_ideal(seed, nv)
        I = Ideal(gens)
        g = Poly(I.vars, [(m[:nv], c) for m, c in g_terms] + [((0,) * nv, constant)])
        std = _scaled_matrix(I, g)[0]
        S = rabinowitsch_saturate(I, g)
        stable_rank = len(std) - local_component_dim(I, [g])
        assert stable_rank == (0 if S.is_unit() else quotient_vs_dim(S))
        # the generators have pure-power leading forms, so multiples up to one
        # degree past the staircase already span the ideal in those degrees
        bound = max(sum(m) for m in std) + 1
        assert len(std) == macaulay_quotient_dim(gens, bound)

    @pytest.mark.parametrize("p", [None])
    @given(seed=st.integers(0, 10**6), nv=st.integers(2, 3),
           forms_terms=st.lists(st.tuples(TERMS, st.integers(-2, 2)), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_local_component_dim_against_saturation(self, p, seed, nv, forms_terms):
        I = Ideal(random_zero_dim_ideal(seed, nv))
        forms = [
            Poly(I.vars, [(m[:nv], c) for m, c in terms] + [((0,) * nv, constant)])
            for terms, constant in forms_terms
        ]
        assume(all(not g.is_zero() for g in forms))
        S = saturate_ideal(I, Ideal(forms))
        rest = 0 if S.is_unit() else quotient_vs_dim(S)
        assert local_component_dim(I, forms) == quotient_vs_dim(I) - rest

    def test_linear_multipliers_split_the_support(self):
        # on these seeds' ideals x_k - a vanishes on some points of V(I) but
        # not on others, so stable ranks fall strictly between 0 and dim k[x]/I
        partial = 0
        for seed in (6, 8, 10, 11, 13):
            nv = 2 + seed % 2
            I = Ideal(random_zero_dim_ideal(seed, nv))
            for k in range(nv):
                for a in range(-2, 3):
                    g = Poly.variable(I.vars, k) - Poly.constant(I.vars, a)
                    S = rabinowitsch_saturate(I, g)
                    rank = quotient_vs_dim(I) - local_component_dim(I, [g])
                    assert rank == (0 if S.is_unit() else quotient_vs_dim(S))
                    partial += 0 < rank < quotient_vs_dim(I)
        assert partial == 9

    def test_worked_examples(self):
        I = Ideal([P("x^2 - y", V2), P("y^2 - y", V2)])  # (0,0) double, (+-1,1)
        std = _scaled_matrix(I, P("1", V2))[0]
        assert std == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert local_component_dim(I, [P("1", V2)]) == 0
        for member in (P("x^2 - y", V2), P("x^2*y - y^2", V2)):
            assert local_component_dim(I, [member]) == 4
        # x and y vanish on the double point at the origin only
        assert local_component_dim(I, [P("y", V2)]) == 2
        assert local_component_dim(I, [P("x", V2)]) == 2
        # x - 1 and y - 1 vanish together only at (1, 1); no form: all of it
        assert local_component_dim(I, [P("x - 1", V2), P("y - 1", V2)]) == 1
        assert local_component_dim(I, []) == 4

    def test_degenerate_inputs(self):
        unit = Ideal([P("x", V2), P("x - 1", V2)])
        std, rows, _ = _scaled_matrix(unit, P("x", V2))
        assert std == () and rows == [] and local_component_dim(unit, [P("x", V2)]) == 0
        with pytest.raises(NotZeroDimensional):
            _scaled_matrix(Ideal([P("x*y", V2)]), P("x", V2))
        with pytest.raises(NotZeroDimensional):
            local_component_dim(Ideal([P("x*y", V2)]), [P("x", V2)])
        with pytest.raises(DomainMismatch):  # a multiplier over other variables
            _scaled_matrix(Ideal([P("x^2", V2), P("y", V2)]), P("x", V3))


# a large denominator
BIG = 10**12 + 39
ENTRIES = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3, 7, BIG, BIG**2]))


@st.composite
def fraction_matrices(draw, square=False):
    """Rows of Fractions with zero rows and repeated rows mixed in.  About
    half the square matrices are nilpotent: strictly upper triangular up to
    one permutation of their rows and columns."""
    size = draw(st.integers(0, 6))
    ncols = size if square else draw(st.integers(1, 6))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(size)]
    if not square:
        for _ in range(draw(st.integers(0, 2))):
            copy = list(rows[draw(st.integers(0, len(rows) - 1))]) if rows else []
            rows.insert(draw(st.integers(0, len(rows))), copy or [Fraction(0)] * ncols)
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
        return rows
    if draw(st.booleans()):  # the nilpotent case
        perm = draw(st.permutations(range(size)))
        rows = [[rows[i][j] if perm[j] > perm[i] else Fraction(0) for j in range(size)]
                for i in range(size)]
    elif size and draw(st.booleans()):  # a repeated row
        rows[-1] = list(rows[0])
    return rows


def _integer_rows(rows, common=False):
    """The rows over the integers: each row, or with `common` the whole
    matrix, times the lcm of its denominators."""
    if common:
        D = math.lcm(1, *(x.denominator for r in rows for x in r))
        return [[int(x * D) for x in r] for r in rows]
    return [[int(x * math.lcm(1, *(y.denominator for y in r))) for x in r] for r in rows]


class TestIntegerKernels:
    """The echelon and stable-image kernels on integer rows, and the
    multiplication matrices built from the variable matrices, against the
    Fraction kernels and the normal forms they replaced
    (`tests/helpers.py::reference_*`) and against `fraction_rank`.  The
    coefficients are rational only; p names that case."""

    @pytest.mark.parametrize("p", [None])
    @given(rows=fraction_matrices())
    @settings(max_examples=60, deadline=None)
    def test_echelon_rank_and_form(self, p, rows):
        echelon = groebner._echelon(_integer_rows(rows))
        rank = fraction_rank(rows)
        assert len(echelon) == len(reference_echelon(rows)) == rank
        # the echelon rows span the row space
        assert fraction_rank(rows + echelon) == rank
        # reduced: each pivot is the only nonzero entry of its column
        pivots = [next(i for i, x in enumerate(r) if x) for r in echelon]
        assert len(set(pivots)) == len(pivots)
        for r, col in zip(echelon, pivots):
            assert all(not other[col] for other in echelon if other is not r)
            assert math.gcd(*r) == 1

    def test_fraction_rank_is_exact_on_integer_rows(self):
        # Krylov rows of rank 3: the fourth is -(second) - 2*(third); in
        # floating point the elimination leaves a residue and counts 4
        rows = [[1, -1, -1, -1], [4, 1, 0, 1], [-3, -1, 1, -1], [2, 1, -2, 1], [-1, -1, 3, -1]]
        assert fraction_rank(rows) == 3 == len(groebner._echelon(rows))

    @pytest.mark.parametrize("p", [None])
    @given(rows=fraction_matrices(square=True))
    @settings(max_examples=60, deadline=None)
    def test_stable_image_dimension(self, p, rows):
        image = groebner._stable_image(_integer_rows(rows, common=True))
        assert len(image) == len(reference_stable_image(rows))
        nilpotent = all(not x for i, r in enumerate(rows) for x in r[: i + 1])
        if nilpotent or not rows:
            assert image == []
        # the image is invariant under the matrix
        moved = [[sum(c * y for c, y in zip(v, col)) for col in zip(*rows)] for v in image]
        assert fraction_rank(image + moved) == len(image)

    @pytest.mark.parametrize("p", [0])
    def test_stable_image_of_an_invertible_matrix_is_one_echelon(self, monkeypatch, p):
        # an invertible M has every image equal to the whole space, so the
        # first echelon is the stable image and no power of M is formed
        calls = []
        real = groebner._echelon
        monkeypatch.setattr(groebner, "_echelon", lambda rows: calls.append(rows) or real(rows))
        rows = [[2, 1, 0], [0, 3, -1], [1, 0, 5]]
        assert groebner._stable_image(rows) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [None])
    @given(seed=st.integers(0, 10**6), nv=st.integers(2, 3),
           g_terms=st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * 3), ENTRIES), max_size=4),
           shift=st.sampled_from([0, 3, BIG]), unit=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_multiplication_matrix_equals_the_normal_forms(self, p, seed, nv, g_terms, shift, unit):
        gens = random_zero_dim_ideal(seed, nv)
        names = gens[0].vars
        if shift:  # move the points by multiples of 1/shift
            images = [Poly.variable(names, i) + Poly.constant(names, Fraction(i + 1, shift))
                      for i in range(nv)]
            gens = [g.subs(images) for g in gens]
        if unit:
            gens.append(gens[0] + Poly.constant(names, 1))
        g = Poly(names, [(m[:nv], c) for m, c in g_terms])
        I = Ideal(gens)
        std, rows, scale = _scaled_matrix(I, g)
        rows = [[Fraction(x, scale) for x in row] for row in rows]  # the rows are scale * M_g
        assert (std, rows) == reference_multiplication_matrix(I, g)
        assert len(std) == quotient_vs_dim(I) and (std == ()) == unit
        assert local_component_dim(I, []) == len(std)

    def test_algebra_is_built_once_per_ideal(self, monkeypatch):
        # counts, the algebra and the matrices read one packed staircase per
        # ideal, `projective_dim` lists none (it reads the Krull dimension off
        # the leads), and none of them builds a `StaircaseReport`
        calls, reports = [], []
        real, real_report = groebner._run_staircase, groebner.staircase
        monkeypatch.setattr(groebner, "_run_staircase", lambda run: calls.append(run) or real(run))
        monkeypatch.setattr(groebner, "staircase", lambda I: reports.append(I) or real_report(I))
        I = Ideal([P("x^2 - y", V2), P("y^2 - y", V2)])
        point = Ideal([P("x"), P("y")])
        for _ in range(2):
            assert quotient_vs_dim(I) == 4 and projective_dim(point) == 0
            _scaled_matrix(I, P("x*y", V2))
            local_component_dim(I, [P("x", V2), P("y - 1", V2)])
        assert calls == [I.run] and reports == []
        assert I.algebra is I.algebra
