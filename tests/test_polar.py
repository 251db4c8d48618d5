"""Polar degree by three methods, consistency, and the bound checkers."""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import polargrad.groebner as groebner
import polargrad.polar as polar
from helpers import (
    fiber_minors,
    form_products,
    rabinowitsch_saturate,
    record_pair_loops,
    saturation_fiber_count,
    saturation_local_dim,
)
from polargrad.catalog import BY_NAME
from polargrad.groebner import (
    DEFAULT_CAPS,
    Caps,
    Ideal,
    NotZeroDimensional,
    ResourceLimit,
    _pair_loop,
    projective_dim,
    quotient_vs_dim,
    run_quotient_dim,
    saturate_ideal,
    zero_dim_degree_projective,
)
from polargrad.hypersurface import mu_summary
from polargrad.monodromy import CycDivisor, bp_charpoly, charpoly_product
from polargrad.parser import parse_poly
from polargrad.polar import (
    HypothesisError,
    OracleInconsistent,
    PositiveDimensionalFiber,
    check_multiplicity_inequality,
    check_polar_degree_lower_bound,
    check_surface_criterion,
    conjecture_verdict,
    consolidate,
    is_homaloidal,
    polar_degree_fiber_oracle,
    polar_degree_formula,
    polar_degree_tame,
    require_hypotheses,
)
from polargrad.poly import (
    Poly,
    Reducedness,
    dehomogenize,
    gradient,
    squarefree_probe,
    substitute_linear,
)
from polargrad.rng import SplitMix64

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("w", "x", "y", "z")

XYZ = parse_poly("x*y*z", V3)
FERMAT2 = parse_poly("x^3 + y^3 + z^3", V3)
CONIC_TANGENT = parse_poly("x*(x*z - y^2)", V3)


class TestFiberOracle:
    def test_triangle_involution(self):
        r = polar_degree_fiber_oracle(XYZ, seed=1)
        assert r.value == 1
        assert not r.details["discrepancy"]

    def test_not_dominant_gives_zero(self):
        f = parse_poly("x^3 + y^3", V3)  # gradient misses the z coordinate
        r = polar_degree_fiber_oracle(f, seed=1)
        assert r.value == 0
        assert all(v == 0 for v in r.details["values"])

    def test_fermat_plane_cubic(self):
        assert polar_degree_fiber_oracle(FERMAT2, seed=1).value == 4

    def test_rational_path_matches(self):
        r = polar_degree_fiber_oracle(XYZ, seed=5)
        assert r.value == 1
        assert r.details["trials"][0]["path"] == "rational"

    def test_invariant_under_coordinate_changes(self):
        from polargrad.poly import det_fraction

        rng = SplitMix64(99)
        for f, expected in [(XYZ, 1), (CONIC_TANGENT, 1)]:
            frames = 0
            while frames < 3:
                M = [list(rng.int_vector(3, -3, 3)) for _ in range(3)]
                if det_fraction(M) == 0:
                    continue
                frames += 1
                g = substitute_linear(f, M)
                assert polar_degree_fiber_oracle(g, seed=7).value == expected

    def test_smooth_degree_closed_form(self):
        # d(f) = (d-1)^n for smooth pure-power sums
        cases = [
            ("x^2 + y^2", V2, 2, 1),
            ("x^3 + y^3", V2, 3, 2),
            ("x^2 + y^2 + z^2", V3, 2, 1),
            ("x^3 + y^3 + z^3", V3, 3, 4),
            ("x^4 + y^4 + z^4", V3, 4, 9),
            ("w^2 + x^2 + y^2 + z^2", V4, 2, 1),
            ("w^3 + x^3 + y^3 + z^3", V4, 3, 8),
            ("w^4 + x^4 + y^4 + z^4", V4, 4, 27),
        ]
        for text, vars, d, expected in cases:
            f = parse_poly(text, vars)
            n = len(vars) - 1
            assert expected == (d - 1) ** n
            assert polar_degree_fiber_oracle(f, seed=1).value == expected

    def test_reduction_invariance(self):
        pairs = [
            ("x^2*y", "x*y"),
            ("(x+y)^2*(x-y)", "(x+y)*(x-y)"),
        ]
        for thick, thin in pairs:
            v1 = polar_degree_fiber_oracle(parse_poly(thick, V2), seed=1).value
            v2 = polar_degree_fiber_oracle(parse_poly(thin, V2), seed=1).value
            assert v1 == v2

    def test_constant_rejected(self):
        with pytest.raises(HypothesisError):
            polar_degree_fiber_oracle(parse_poly("5", V2))

    def test_fewer_than_one_trial_rejected(self):
        for trials in (0, -3):
            with pytest.raises(ValueError, match="at least one oracle trial"):
                polar_degree_fiber_oracle(XYZ, trials=trials)


class TestFormulaAndTame:
    def test_triangle(self):
        assert polar_degree_formula(XYZ, 1).value == 1
        tame = polar_degree_tame(XYZ, 1)
        assert tame.value == 1
        assert tame.details["mu_total"] == 4 and tame.details["mu_on"] == 3
        assert set(tame.details) == {"mu_total", "mu_on", "frame_seed", "frame_draws"}

    def test_fermat_is_mu_zero(self):
        r = polar_degree_formula(FERMAT2, 1)
        assert r.value == 4 and r.details["mu_V"] == 0

    def test_conic_tangent(self):
        assert polar_degree_formula(CONIC_TANGENT, 1).value == 1
        assert polar_degree_tame(CONIC_TANGENT, 2).value == 1

    def test_smooth_quadric_tame(self):
        q = parse_poly("x^2 + y^2 + z^2", V3)
        assert polar_degree_tame(q, 1).value == 1

    def test_hypothesis_gates(self):
        with pytest.raises(HypothesisError):
            polar_degree_formula(parse_poly("x^2*y", V3), 1)  # not reduced
        with pytest.raises(HypothesisError):
            polar_degree_tame(parse_poly("x^2*y", V3), 1)

    def test_one_variable_rejected_by_the_gate(self):
        # no frame is drawn: the gate rejects the input before any draw
        f = parse_poly("x", ("x",))
        for method in (polar_degree_formula, polar_degree_tame):
            with pytest.raises(HypothesisError, match="at least two variables"):
                method(f, 1)


class TestHypothesisGate:
    @given(form_products())
    @settings(max_examples=60, deadline=None)
    def test_gate_against_the_line_probe(self, case):
        f, square = case
        n = len(f.vars) - 1
        if square:
            with pytest.raises(HypothesisError) as err:
                require_hypotheses(f)
            assert ("not reduced" if n == 1 else "dimension") in str(err.value)
        if squarefree_probe(f, seed=1) is Reducedness.PROBABLY_REDUCED:
            # the probe's one-sided answer is a proof of reducedness, and a
            # reduced curve in P^1 or P^2 has isolated singularities
            assert require_hypotheses(f)[0] == f.degree()

    def test_messages(self):
        cases = [
            ("x^2 + y", V2, "degrees"),
            ("0", V2, "zero polynomial"),
            ("5", V2, "non-constant"),
            ("x", ("x",), "at least two variables"),
            ("x^2*y", V3, "singular locus has dimension 1"),
            ("x^2*y", V2, "input polynomial is not reduced"),
        ]
        for text, vars, message in cases:
            with pytest.raises(HypothesisError, match=message):
                require_hypotheses(parse_poly(text, vars))
        assert require_hypotheses(XYZ)[0] == 3
        assert require_hypotheses(parse_poly("x*y", V2))[0] == 2


class TestOnePartialSaturation:
    """`helpers.saturation_fiber_count`, the projective route that checks the
    cone oracle, and what the oracle no longer does."""

    @given(
        form_products(nvs=(3,)),
        st.tuples(*[st.integers(-2, 2)] * 3).filter(any),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_partial_equals_the_whole_gradient(self, case, u):
        # no hypothesis on f: square factors and non-isolated loci included
        f = case[0]
        grads = gradient(f)
        gens = fiber_minors(grads, u)
        assume(gens)
        fiber = Ideal(gens)
        expected = saturate_ideal(fiber, Ideal(grads))
        admissible = [g for g, c in zip(grads, u) if c and not g.is_zero()]
        if not admissible:  # then the minors contain grad f
            assert expected.is_unit()
        for g in admissible:
            assert rabinowitsch_saturate(fiber, g) == expected
        pd = projective_dim(expected)
        if pd > 0:
            with pytest.raises(NotZeroDimensional):
                saturation_fiber_count(grads, u)
        else:
            degree = 0 if pd == -1 else zero_dim_degree_projective(expected)
            assert saturation_fiber_count(grads, u) == degree

    @pytest.mark.parametrize(
        "text, vars, value",
        [("x^2*y*z", V3, 1), ("w*x*y + w*x*z + w*y*z + x*y*z", V4, 4)],
    )
    def test_one_basis_per_trial_and_domain(self, monkeypatch, text, vars, value):
        # both inputs have a nonempty base locus, which the oracle never saturates away
        def forbidden(*args):
            raise AssertionError("the oracle saturated or intersected")

        calls = record_pair_loops(monkeypatch)
        for module, name in ((groebner, "saturate"), (groebner, "intersect"), (polar, "intersect")):
            monkeypatch.setattr(module, name, forbidden)
        r = polar_degree_fiber_oracle(parse_poly(text, vars), seed=1)
        assert r.value == value
        assert {t["path"] for t in r.details["trials"]} == {"rational"}
        assert len(calls) == len(r.details["trials"]) == 3
        # the second and third targets follow the first one's schedule
        assert [followed for *_, followed in calls] == [False, True, True]
        assert all(run is not None for _, run, _ in calls)

    def test_no_admissible_partial_gives_an_empty_fiber(self):
        # u = (0, 0, 1) and f_z = 0: the cone ideal holds f_z - 1 = -1, a unit
        f = parse_poly("x^2*y", V3)
        assert saturation_fiber_count(gradient(f), (0, 0, 1)) == 0
        assert polar._fiber_degree(polar._packed_gradient(f, 3), 3, (0, 0, 1))[0] == 0

    def test_saturation_exponent_per_trial(self):
        # the trial records carry no saturation exponent: nothing is saturated
        for text in ("x^2*y*z", "x^3 + y^3 + z^3"):
            r = polar_degree_fiber_oracle(parse_poly(text, V3), seed=1)
            for trial in r.details["trials"]:
                assert list(trial) == ["u", "path", "degree"]


class TestConeOracle:
    @given(form_products(nvs=(3, 4)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cone_count_is_d_minus_1_times_the_saturated_count(self, case, data):
        # square factors and non-isolated singular loci included; a target
        # grad f(x0) has x0 in its fiber, which may be singular or not finite
        f = case[0]
        d, nv = f.degree(), len(f.vars)
        assume(2 <= d <= (4 if nv == 3 else 3))
        grads = gradient(f)
        if data.draw(st.booleans(), label="target on a point"):
            x0 = data.draw(st.tuples(*[st.integers(-2, 2)] * nv), label="x0")
            u = tuple(int(g.evaluate(x0)) for g in grads)
        else:
            u = data.draw(st.tuples(*[st.integers(-3, 3)] * nv), label="u")
        assume(any(u))
        cone = Ideal([g - Poly.constant(f.vars, c) for g, c in zip(grads, u)])
        try:
            expected = saturation_fiber_count(grads, u)
        except NotZeroDimensional:
            with pytest.raises(NotZeroDimensional):
                quotient_vs_dim(cone)
            with pytest.raises(PositiveDimensionalFiber):
                polar._fiber_degree(polar._packed_gradient(f, d), d, u)
            return
        assert quotient_vs_dim(cone) == (d - 1) * expected
        assert polar._fiber_degree(polar._packed_gradient(f, d), d, u)[0] == expected

    @given(form_products(nvs=(3, 4)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_followed_run_is_the_full_run(self, case, data):
        # the second target follows the first one's schedule; a target
        # grad f(x0) need not reproduce it, and then following gives None
        f = case[0]
        d, nv = f.degree(), len(f.vars)
        assume(2 <= d <= (4 if nv == 3 else 3))
        grads, grad = gradient(f), polar._packed_gradient(f, d)

        def target(label):
            if data.draw(st.booleans(), label=f"{label} on a point"):
                x0 = data.draw(st.tuples(*[st.integers(-2, 2)] * nv), label=f"{label} x0")
                return tuple(int(g.evaluate(x0)) for g in grads)
            return data.draw(st.tuples(*[st.integers(-3, 3)] * nv), label=label)

        u1, u2 = target("u1"), target("u2")
        assume(any(u1) and any(u2))
        first = _cone_loop(grad, u1)
        schedule, counted = first.schedule, groebner._run_staircase(first)
        # what `_fiber_degree` keeps of a finite first target
        follow = None if counted is None else (schedule, len(counted))
        full, followed = _cone_loop(grad, u2), _cone_loop(grad, u2, schedule)
        assert (followed is None) == (full.schedule != schedule)
        if followed is not None:
            # the followed run takes its minimal leads from the schedule; they,
            # its staircase and its count are those of a fresh full run
            assert followed.schedule is schedule and schedule[2] == full.schedule[2]
            for name in ("leads", "lcs", "tails"):
                assert getattr(followed, name) == getattr(full, name), name
            assert groebner._run_staircase(followed) == groebner._run_staircase(full)
            if follow is not None:
                assert run_quotient_dim(full) == follow[1]
                assert polar._fiber_degree(grad, d, u2, follow=follow)[1] is follow
        try:
            expected = saturation_fiber_count(grads, u2)
        except NotZeroDimensional:
            with pytest.raises(PositiveDimensionalFiber):
                polar._fiber_degree(grad, d, u2, follow=follow)
            return
        assert polar._fiber_degree(grad, d, u2, follow=follow)[0] == expected

    @pytest.mark.parametrize(
        "text, x0, count",
        [
            ("x*(x*z - y^2)", (1, 1, 0), 1),  # off the curve: a finite fiber
            ("x*(x*z - y^2)", (0, 1, 0), None),  # on the line x = 0: not finite
            ("x*y*z", (1, 1, 0), None),  # on the line z = 0: not finite
        ],
    )
    def test_a_non_generic_target_leaves_the_schedule(self, text, x0, count):
        # u = grad f(x0), after a generic first target: its run reduces the
        # pairs in another way, so following gives None and the count
        # comes from the full loop
        f = parse_poly(text, V3)
        d, grad = f.degree(), polar._packed_gradient(f, f.degree())
        u1 = tuple(polar_degree_fiber_oracle(f, seed=1).details["trials"][0]["u"])
        u2 = tuple(int(g.evaluate(x0)) for g in gradient(f))
        first = _cone_loop(grad, u1)
        follow = first.schedule, run_quotient_dim(first)
        assert _cone_loop(grad, u2, follow[0]) is None
        if count is None:
            with pytest.raises(PositiveDimensionalFiber):
                polar._fiber_degree(grad, d, u2, follow=follow)
        else:
            # the count of u2's own full run, kept with its schedule
            kept = (_cone_loop(grad, u2).schedule, (d - 1) * count)
            assert polar._fiber_degree(grad, d, u2, follow=follow) == (count, kept)
            assert saturation_fiber_count(gradient(f), u2) == count

    @pytest.mark.parametrize("name", ["five-node-quartic", "e6-cubic", "cremona-triangle"])
    def test_a_followed_target_hits_the_basis_cap_of_its_full_loop(self, name):
        entry = BY_NAME[name]
        f = parse_poly(entry.text, entry.vars)
        grad = polar._packed_gradient(f, f.degree())
        u1, u2 = (tuple(t["u"]) for t in polar_degree_fiber_oracle(f, seed=1).details["trials"][:2])
        schedule = _cone_loop(grad, u1).schedule
        # the elements the loop makes: the intake and each nonzero remainder
        size = len(schedule[0]) + sum(lead is not None for *_, lead in schedule[1])
        for k in range(1, size + 2):
            caps = Caps(max_basis=k)
            for follow in (None, schedule):
                if k < size:
                    with pytest.raises(ResourceLimit, match=f"basis cap {k} exceeded"):
                        _cone_loop(grad, u2, follow, caps)
                else:
                    assert _cone_loop(grad, u2, follow, caps) is not None

    def test_reductions_of_the_five_node_quartic(self, monkeypatch):
        # targets 2 and 3 follow target 1's schedule and still reduce every
        # pair of their own runs: the S-pair reductions of the oracle at seed 1
        real, remainders = groebner._s_remainder, []
        monkeypatch.setattr(groebner, "_s_remainder", lambda *a: remainders.append(real(*a)) or remainders[-1])
        entry = BY_NAME["five-node-quartic"]
        assert polar_degree_fiber_oracle(parse_poly(entry.text, entry.vars), seed=1).value == 4
        assert (len(remainders), sum(not r for r in remainders)) == (66, 33)

    @pytest.mark.parametrize(
        "text, vars",
        [
            ("a*d^2 + b*d*e + c*e^2", ("a", "b", "c", "d", "e")),  # Perazzo: Hessian zero
            ("x^2", V3),  # cones: the gradient misses a coordinate
            ("x^3 + y^3", V3),
        ],
    )
    def test_empty_generic_fiber(self, text, vars):
        r = polar_degree_fiber_oracle(parse_poly(text, vars), seed=1)
        assert r.value == 0 and set(r.details["values"]) == {0}

    def test_linear_form_builds_no_basis(self, monkeypatch):
        calls = record_pair_loops(monkeypatch)
        r = polar_degree_fiber_oracle(parse_poly("x", V2), seed=1)
        assert r.value == 0 and calls == []

    def test_indivisible_count_is_inconsistent_over_qq(self, monkeypatch):
        monkeypatch.setattr(polar, "run_quotient_dim", lambda run: run_quotient_dim(run) + 1)
        with pytest.raises(OracleInconsistent, match="not a multiple of d - 1 = 2"):
            polar_degree_fiber_oracle(FERMAT2, seed=1)


def _cone_loop(grad, u, follow=None, caps=DEFAULT_CAPS):
    """The pair loop on the cone ideal (f_i - u_i) of grad f, packed by
    `polar._packed_gradient`, following `follow` when given."""
    vars, packing, _ = grad
    return _pair_loop(vars, packing, caps, polar._cone_generators(grad, u), follow)


def _check_milnor_numbers(f):
    """Every local Milnor number against the double saturation on the point's
    chart Jacobian, the three methods against each other, and the formula
    against the sum of the local Milnor numbers when they are all of them."""
    summary = mu_summary(f, 1)
    for pt, mu in summary.local_mu.items():
        chart_h = dehomogenize(f, pt.chart())
        assert mu == saturation_local_dim(gradient(chart_h), pt.affine_coords()), pt
    values = {
        polar_degree_formula(f, 1).value,
        polar_degree_tame(f, 1).value,
        polar_degree_fiber_oracle(f, seed=1).value,
    }
    assert len(values) == 1
    if summary.complete:
        n = len(f.vars) - 1
        assert values == {(f.degree() - 1) ** n - sum(summary.local_mu.values())}


class TestMilnorNumbersFuzz:
    @given(form_products(nvs=(3,), count=(2, 3)))
    @settings(max_examples=20, deadline=None)
    def test_reduced_plane_curves(self, case):
        f = case[0]
        assume(f.degree() <= 4)
        try:
            require_hypotheses(f)
        except HypothesisError:
            assume(False)
        _check_milnor_numbers(f)

    @pytest.mark.parametrize(
        "text",
        [
            "x^2*w + x*z^2 + y^3",  # E6
            "w*x*z - w*y^2 + z^3",  # A1 + A5
            "w*x*y + w*x*z + w*y*z + x*y*z",  # Cayley: four A1
        ],
    )
    def test_cubic_surfaces(self, text):
        _check_milnor_numbers(parse_poly(text, V4))


class TestConsolidation:
    def test_three_way_agreement(self):
        results = [
            polar_degree_formula(XYZ, 1),
            polar_degree_fiber_oracle(XYZ, seed=1),
            polar_degree_tame(XYZ, 2),
        ]
        value, unanimous = consolidate([r.value for r in results])
        assert value == 1 and unanimous

    def test_consolidation_rule(self):
        assert consolidate([4]) == (4, True)
        assert consolidate([4, 4, 4]) == (4, True)
        assert consolidate([4, 4, 3]) == (4, False)
        assert consolidate([3, 4, 4]) == (4, False)
        assert consolidate([1, 2, 3]) == (None, False)

    def test_homaloidal_examples(self):
        assert is_homaloidal(XYZ)[0]
        assert is_homaloidal(CONIC_TANGENT)[0]
        flag, evidence = is_homaloidal(FERMAT2)
        assert not flag
        assert {r.value for r in evidence} == {4}

    def test_evidence_bundle(self):
        flag, evidence = is_homaloidal(parse_poly("x^2 + y^2 + z^2", V3))
        assert flag
        assert {r.method for r in evidence} == {"formula", "fiber_oracle", "tame_split"}


class TestCheckers:
    def test_lower_bound_equality_case(self):
        assert check_polar_degree_lower_bound(3, 3, 2, 0) == {
            "lhs": 2,
            "rhs": 2,
            "holds": True,
        }

    def test_lower_bound_failure_signals_bad_input(self):
        assert not check_polar_degree_lower_bound(3, 3, 0, 0)["holds"]

    def test_lower_bound_domain(self):
        with pytest.raises(ValueError):
            check_polar_degree_lower_bound(2, 3, 1, 0)

    def test_surface_criterion(self):
        assert check_surface_criterion(3, 0)["certified"]
        assert not check_surface_criterion(4, 5)["certified"]
        assert check_surface_criterion(5, 0)["certified"]

    def test_multiplicity_rows_triangle(self):
        delta_v = CycDivisor({1: 3})
        out = check_multiplicity_inequality(3, 2, delta_v, 1)
        assert out["applicable"]
        rows = {row["k"]: row for row in out["rows"]}
        assert rows[1]["mult_V"] == 3 and rows[1]["required"] == 1 and rows[1]["holds"]
        assert rows[3]["mult_V"] == 0 and rows[3]["required"] == 0 and rows[3]["holds"]

    def test_multiplicity_rows_conic_tangent_equality(self):
        delta_v = charpoly_product([bp_charpoly([2, 4])])
        out = check_multiplicity_inequality(3, 2, delta_v, 1)
        rows = {row["k"]: row for row in out["rows"]}
        assert rows[1]["mult_V"] == 1 == rows[1]["required"]
        assert rows[3]["mult_V"] == 0 == rows[3]["required"]

    def test_not_applicable_when_degree_not_one(self):
        out = check_multiplicity_inequality(3, 2, CycDivisor({1: 3}), 4)
        assert not out["applicable"]

    def test_conjecture_verdicts(self):
        assert conjecture_verdict(3, 2, 1) == "out_of_hypothesis"
        assert conjecture_verdict(3, 3, 2) == "consistent"
        assert conjecture_verdict(2, 3, 1) == "out_of_hypothesis"
        assert conjecture_verdict(3, 3, 1) == "COUNTEREXAMPLE"
        assert conjecture_verdict(3, 3, None) == "undetermined"
