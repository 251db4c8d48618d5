"""Analysis orchestration: verdict bundles, declarations, edge paths."""

import io
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest

import polargrad.groebner as groebner
import polargrad.hypersurface as hypersurface
import polargrad.report as report_module
from helpers import record_pair_loops
from polargrad.catalog import BY_NAME
from polargrad.cli import main
from polargrad.groebner import Caps, ResourceLimit
from polargrad.parser import parse_poly
from polargrad.polar import HypothesisError, PolarDegreeResult
from polargrad.poly import Poly, ProjectivePoint
from polargrad.report import (
    AnalysisOptions,
    InconsistencyError,
    InputError,
    analyze_polynomial,
)

V3 = ("x", "y", "z")
V4 = ("w", "x", "y", "z")


class TestSmoothCase:
    def test_fermat_surface_report(self):
        report = analyze_polynomial("w^3 + x^3 + y^3 + z^3", V4).data
        assert report["d_f"]["consolidated"] == 8
        assert report["mu_V"] == 0
        assert report["mu0_V"] == 0
        assert report["delta_V"]["factored"] == "1"
        assert report["singular_points"] == []
        assert report["conjecture_status"] == "consistent"
        bound = report["bounds"]["polar_degree_lower_bound"]
        assert bound["applicable"] and bound["lhs"] == 8 and bound["rhs"] == 2
        assert bound["holds"]


class TestIncompleteEnumeration:
    def test_irrational_nodes_reported(self):
        # two conjugate nodes at (1 : ±1/sqrt(2) : 1)
        report = analyze_polynomial("(x*z - 2*y^2)*(x - z)", V3).data
        assert report["mu_V"] == 2
        assert report["d_f"]["consolidated"] == 2
        assert not report["enumeration_complete"]
        assert report["mu0_V"] is None
        assert report["delta_V"] is None
        assert any("incomplete" in note for note in report["notes"])
        assert not report["bounds"]["eigenvalue_multiplicities"]["applicable"]

    def test_rational_and_irrational_nodes(self):
        # the line y = 0 meets the conic at (0 : 0 : 1) and (1 : 0 : 0) and the
        # line x = z at (1 : 0 : 1); the conjugate pair above stays irrational
        report = analyze_polynomial("y*(x*z - 2*y^2)*(x - z)", V3).data
        points = [sp["point"] for sp in report["singular_points"]]
        assert points == [["0", "0", "1"], ["1", "0", "0"], ["1", "0", "1"]]
        assert [sp["mu"] for sp in report["singular_points"]] == [1, 1, 1]
        assert report["mu_V"] == 5
        assert not report["enumeration_complete"]
        assert report["d_f"]["consolidated"] == 4 and report["d_f"]["unanimous"]
        assert any("incomplete" in note for note in report["notes"])


class TestDeclarations:
    def test_declared_divisor_feeds_bounds(self):
        options = AnalysisOptions(
            declarations=[
                {"point": ["0", "0", "1"], "weights": ["1/2", "1/4"], "label": "A3"}
            ]
        )
        report = analyze_polynomial("x*(x*z - y^2)", V3, options).data
        assert report["mu0_V"] == 1
        assert report["singular_points"][0]["label"] == "A3"
        assert report["singular_points"][0]["charpoly"] == "(t^4-1)^1*(t^2-1)^-1*(t-1)^1"

    @staticmethod
    def forbid_later_stages(monkeypatch):
        # a declaration is checked against the points of the first frame,
        # before the second frame and the oracle run
        def forbidden(*args):
            raise AssertionError("a later stage ran before the declarations were checked")

        monkeypatch.setattr(report_module, "frame_split", forbidden)
        monkeypatch.setattr(report_module, "polar_degree_fiber_oracle", forbidden)

    def test_declaration_for_nonsingular_point_rejected(self, monkeypatch):
        self.forbid_later_stages(monkeypatch)
        options = AnalysisOptions(
            declarations=[{"point": ["1", "1", "1"], "bp_exponents": [2, 2]}]
        )
        with pytest.raises(InputError, match="not rational singular points"):
            analyze_polynomial("x*y*z", V3, options)

    def test_divisor_degree_must_match_mu(self, monkeypatch):
        self.forbid_later_stages(monkeypatch)
        # A3 point has mu = 3; declaring a node divisor (degree 1) must fail
        options = AnalysisOptions(
            declarations=[{"point": ["0", "0", "1"], "bp_exponents": [2, 2]}]
        )
        with pytest.raises(InputError, match="does not match the Milnor number 3"):
            analyze_polynomial("x*(x*z - y^2)", V3, options)

    def test_weights_and_exponents_exclusive(self):
        options = AnalysisOptions(
            declarations=[
                {
                    "point": ["0", "0", "1"],
                    "bp_exponents": [2, 4],
                    "weights": ["1/2", "1/4"],
                }
            ]
        )
        with pytest.raises(InputError):
            analyze_polynomial("x*(x*z - y^2)", V3, options)


class TestHypothesisGates:
    def test_non_homogeneous(self):
        with pytest.raises(HypothesisError):
            analyze_polynomial("x^2 + y", ("x", "y"))

    def test_non_isolated_message_names_dimension(self):
        with pytest.raises(HypothesisError) as err:
            analyze_polynomial("x^2*y", V3)
        assert "dimension 1" in str(err.value)

    def test_not_reduced_rejected(self):
        # in two variables the singular scheme of x^2*y is a point, so the
        # isolatedness gate passes; a binary form is reduced exactly when its
        # singular scheme is empty, so the gate rejects it
        with pytest.raises(HypothesisError) as err:
            analyze_polynomial("x^2*y", ("x", "y"))
        assert "reduced" in str(err.value)

    def test_non_reduced_implies_non_isolated_in_plane(self):
        # with three variables a square factor forces a positive-dimensional
        # singular locus, so the dimension gate fires first
        with pytest.raises(HypothesisError) as err:
            analyze_polynomial("(x^2 + y^2 + z^2)^2", V3)
        assert "dimension" in str(err.value)


class TestLowDimension:
    def test_binary_form_analyzes(self):
        # P^1: two reduced points, smooth, d(f) = 1, no multiplicity rows
        report = analyze_polynomial("x*y", ("x", "y")).data
        assert report["d_f"]["consolidated"] == 1
        assert report["mu_V"] == 0
        assert not report["bounds"]["eigenvalue_multiplicities"]["applicable"]
        assert report["conjecture_status"] == "out_of_hypothesis"


class TestTimings:
    def test_timings_only_on_request(self):
        plain = analyze_polynomial("x*y*z", V3).data
        assert "timings" not in plain
        timed = analyze_polynomial("x*y*z", V3, AnalysisOptions(timings=True)).data
        assert "total" in timed["timings"]

    def test_timing_lines_are_aligned(self):
        text = analyze_polynomial("x*y*z", V3, AnalysisOptions(timings=True)).to_text()
        lines = [line for line in text.splitlines() if line.startswith("time ")]
        assert [line.split()[1] for line in lines] == [
            "hypotheses", "frames", "oracle", "singularities", "total"
        ]
        # every value starts in the column after the longest stage name
        assert {line.index(line.split()[2]) for line in lines} == {len("time singularities ")}


class TestPipeline:
    def test_local_milnor_numbers_computed_once(self, monkeypatch):
        # five nodes: one frame, the formula's, which the oracle agrees with;
        # the points step runs once on it, the frame builds one stable image
        # on its whole algebra (dimension (4-1)^2 = 9), and every other
        # stable image is on A/S (dimension mu_on = 5); no per-point kernel
        # call is left
        sizes, frames, points, kernel = [], [], [], []
        real_image = hypersurface._stable_image
        real_split = hypersurface.tame_split
        real_points = hypersurface.rational_singular_points

        def imaging(rows):
            sizes.append(len(rows))
            return real_image(rows)

        def splitting(model):
            frames.append(model.seed)
            return real_split(model)

        def pointing(model):
            points.append(model.seed)
            return real_points(model)

        monkeypatch.setattr(hypersurface, "_stable_image", imaging)
        monkeypatch.setattr(hypersurface, "tame_split", splitting)
        monkeypatch.setattr(hypersurface, "rational_singular_points", pointing)
        monkeypatch.setattr(hypersurface, "local_component_dim", lambda I, forms: kernel.append(1))
        entry = BY_NAME["five-node-quartic"]
        report = analyze_polynomial(entry.text, entry.vars).data
        assert report["mu_V"] == 5
        assert [p["mu"] for p in report["singular_points"]] == [1] * 5
        assert frames == [1] and points == [1] and kernel == []
        assert sizes.count(9) == 1
        assert set(sizes) == {9, 5}

    def test_one_packed_staircase_per_ideal(self, monkeypatch):
        # each frame draw's certificate and oracle target 1 list a staircase
        # through `_run_staircase`, once per run: the split and the points
        # step read the accepted draw's, the gate reads only a Krull
        # dimension, and targets 2 and 3 take target 1's count with its
        # schedule; no stage builds a `StaircaseReport`
        entry = BY_NAME["five-node-quartic"]
        draws = hypersurface.generic_frame(parse_poly(entry.text, entry.vars), 1).draws
        runs, reports = [], []
        real_run, real_report = groebner._run_staircase, groebner.staircase
        monkeypatch.setattr(groebner, "_run_staircase", lambda run: runs.append(run) or real_run(run))
        monkeypatch.setattr(groebner, "staircase", lambda I: reports.append(I) or real_report(I))
        assert analyze_polynomial(entry.text, entry.vars).data["mu_V"] == 5
        assert reports == []
        assert len(runs) == draws + 1 and len({id(run) for run in runs}) == len(runs)

    def test_each_staircase_is_listed_once(self, monkeypatch):
        # the Hesse cubic lists two staircases: its frame certificate's
        # (d-1)^n = 4 standard monomials and oracle target 1's
        # (d-1)*d(f) = 8; the gate lists none, and targets 2 and 3 list none
        listed, real = [], groebner._standard_monomials
        monkeypatch.setattr(
            groebner, "_standard_monomials", lambda leads, packing: listed.append(real(leads, packing)) or listed[-1]
        )
        assert analyze_polynomial("x^3+y^3+z^3+x*y*z", V3).data["d_f"]["consolidated"] == 4
        assert [len(std) for std in listed] == [4, 8]

    @pytest.mark.parametrize(
        "text,vars,built",
        [
            ("x^3+y^3+z^3+x*y*z", V3, 0),
            ("w^3 + x^3 + y^3 + z^3", V4, 0),
            ("x*y*z", V3, 1),
            ("x^2*w + x*z^2 + y^3", V4, 1),
        ],
        ids=["hesse-cubic", "fermat-surface", "triangle", "e6-cubic"],
    )
    def test_a_smooth_input_builds_no_frame_algebra(self, monkeypatch, text, vars, built):
        # the gate's empty Jacobian scheme gives mu(V) = 0: a smooth input
        # builds no QuotientAlgebra and no multiplication matrix, a singular
        # one builds the frame's algebra and M_g once each
        algebras, matrices = [], []
        real_algebra, real_matrix = groebner.QuotientAlgebra, groebner._scaled_matrix

        def algebra(I):
            algebras.append(I)
            return real_algebra(I)

        def matrix(I, g):
            matrices.append(g)
            return real_matrix(I, g)

        monkeypatch.setattr(groebner, "QuotientAlgebra", algebra)
        for module in (groebner, hypersurface):
            monkeypatch.setattr(module, "_scaled_matrix", matrix)
        report = analyze_polynomial(text, vars).data
        assert report["d_f"]["unanimous"] and (report["mu_V"] == 0) == (built == 0)
        assert len(algebras) == len(matrices) == built

    def test_one_jacobian_basis_per_analysis(self, monkeypatch):
        # the hypotheses' Jacobian basis, one frame basis (certified at its
        # first draw) and one per oracle target, the second and third
        # following the first's schedule; the oracle agrees, so no second
        # frame is drawn, and the points step adds no basis
        loops = record_pair_loops(monkeypatch)
        report = analyze_polynomial("x^3+y^3+z^3+x*y*z", V3).data
        assert report["d_f"]["consolidated"] == 4
        assert [order for order, _, _ in loops] == [groebner.GREVLEX] * 5
        assert [followed for *_, followed in loops] == [False] * 3 + [True] * 2
        assert all(run is not None for _, run, _ in loops)

    def test_milnor_sum_above_mu_on_raises(self, monkeypatch):
        real = hypersurface.rational_singular_points

        def inflated(model):
            return {pt: mu + 1 for pt, mu in real(model).items()}

        monkeypatch.setattr(hypersurface, "rational_singular_points", inflated)
        # three nodes now sum to 6 against mu_on = 3
        with pytest.raises(hypersurface.InconsistentMu, match="sum to 6"):
            hypersurface.mu_summary(parse_poly("x*y*z", V3), 1)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(["analyze", "x*y*z", "--vars", "x,y,z"]) == 3
        assert err.getvalue().startswith("inconsistency:")

    def test_a_point_where_grad_f_does_not_vanish_raises(self, monkeypatch):
        real = hypersurface.rational_singular_points

        def moved(model):
            # (1 : 0 : 0) replaced by (1 : 1 : 0), a smooth point of x*y*z,
            # with the same Milnor number, so the sum still equals mu_on
            return {
                ProjectivePoint((1, 1, 0)) if pt.coords == (1, 0, 0) else pt: mu
                for pt, mu in real(model).items()
            }

        monkeypatch.setattr(hypersurface, "rational_singular_points", moved)
        with pytest.raises(hypersurface.InconsistentMu, match=r"\(1 : 1 : 0\), where grad f"):
            hypersurface.mu_summary(parse_poly("x*y*z", V3), 1)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(["analyze", "x*y*z", "--vars", "x,y,z"]) == 3
        assert err.getvalue().startswith("inconsistency:")

    @pytest.mark.parametrize(
        "text,vars",
        [("x^3 + y^3 + z^3 + x*y*z", V3), (BY_NAME["e6-cubic"].text, BY_NAME["e6-cubic"].vars)],
        ids=["hesse-cubic", "e6-cubic"],
    )
    def test_f_is_differentiated_once_per_variable(self, monkeypatch, text, vars):
        # the gate, the frame's g = f_k, the point check and the oracle all
        # read the one grad f kept on f: n + 1 partials of f in all
        f = parse_poly(text, vars)
        real, taken = Poly.partial, []

        def partial(self, i):
            if self == f:
                taken.append(i)
            return real(self, i)

        monkeypatch.setattr(Poly, "partial", partial)
        report = analyze_polynomial(text, vars).data
        assert sorted(taken) == list(range(len(vars)))
        # the E6 cubic has a rational singular point, so grad f is checked there
        assert len(report["singular_points"]) == (text == BY_NAME["e6-cubic"].text)

    def test_caps_do_not_leak_between_concurrent_analyses(self):
        # the Jacobian ideal of x*y*z alone needs three basis elements
        with ThreadPoolExecutor(2) as pool:
            capped = pool.submit(
                analyze_polynomial, "x*y*z", V3, AnalysisOptions(caps=Caps(max_basis=2))
            )
            plain = pool.submit(analyze_polynomial, "x*y*z", V3, AnalysisOptions())
            with pytest.raises(ResourceLimit):
                capped.result()
            assert plain.result().data["d_f"]["consolidated"] == 1


class TestConsolidation:
    @staticmethod
    def fixed_oracle(value, calls=None):
        def oracle(f, trials=3, seed=1, caps=None):
            if calls is not None:
                calls.append(f)
            details = {"values": [value], "trials": [], "discrepancy": False}
            return PolarDegreeResult("fiber_oracle", value, seed, details)

        return oracle

    def test_one_wrong_method_is_outvoted(self, monkeypatch):
        monkeypatch.setattr(report_module, "polar_degree_fiber_oracle", self.fixed_oracle(7))
        report = analyze_polynomial("x*y*z", V3).data
        assert report["d_f"] == {
            "formula": 1,
            "fiber_oracle": 7,
            "tame_split": 1,
            "consolidated": 1,
            "unanimous": False,
        }
        assert any(note.startswith("methods disagree") for note in report["notes"])

    def test_three_different_values_raise(self, monkeypatch):
        real = report_module.frame_split

        def shifted_split(f, seed, caps, smooth=False):
            model, mu_on, mu_off = real(f, seed, caps, smooth=smooth)
            return model, mu_on, mu_off + 5

        monkeypatch.setattr(report_module, "polar_degree_fiber_oracle", self.fixed_oracle(7))
        monkeypatch.setattr(report_module, "frame_split", shifted_split)
        with pytest.raises(InconsistencyError, match="all three methods disagree"):
            analyze_polynomial("x*y*z", V3)

    def test_unanimous_counterexample_runs_the_oracle_once(self, monkeypatch):
        # the Fermat cubic surface has d(f) = 8; all three methods are made to say 1
        real_summary = report_module.mu_summary
        calls = []

        def summary_with_mu_7(f, seed, caps, smooth=False):
            return replace(real_summary(f, seed, caps, smooth=smooth), mu_on=7)

        def split_with_mu_7(f, seed, caps, smooth=False):
            return real_summary(f, seed, caps, smooth=smooth).model, 7, 1

        monkeypatch.setattr(report_module, "mu_summary", summary_with_mu_7)
        monkeypatch.setattr(report_module, "frame_split", split_with_mu_7)
        monkeypatch.setattr(report_module, "polar_degree_fiber_oracle", self.fixed_oracle(1, calls))
        report = analyze_polynomial("w^3 + x^3 + y^3 + z^3", V4).data
        assert report["d_f"] == {
            "formula": 1,
            "fiber_oracle": 1,
            "tame_split": 1,
            "consolidated": 1,
            "unanimous": True,
        }
        assert report["conjecture_status"] == "COUNTEREXAMPLE"
        assert "COUNTEREXAMPLE verified with rational arithmetic; review manually" in report["notes"]
        assert len(calls) == 1


class TestSecondFrame:
    """The formula and tame values share one frame; a second frame (seed + 1)
    is drawn only to break a tie with the oracle or to back a
    COUNTEREXAMPLE."""

    @staticmethod
    def spy(monkeypatch, shift=0):
        # the seeds of the frames drawn after the formula's; `shift` moves
        # their mu(V) into mu_off
        seeds = []
        real = report_module.frame_split

        def spying(f, seed, caps, smooth=False):
            seeds.append(seed)
            model, mu_on, mu_off = real(f, seed, caps, smooth=smooth)
            return model, mu_on + shift, mu_off - shift

        monkeypatch.setattr(report_module, "frame_split", spying)
        return seeds

    def test_an_agreeing_oracle_draws_no_second_frame(self, monkeypatch):
        seeds = self.spy(monkeypatch)
        report = analyze_polynomial("w^3 + x^3 + y^3 + z^3", V4, AnalysisOptions(seed=5)).data
        assert report["d_f"]["tame_split"] == 8 and report["d_f"]["unanimous"]
        assert report["conjecture_status"] == "consistent"
        assert seeds == []

    def test_a_disagreeing_oracle_draws_frame_seed_plus_one(self, monkeypatch):
        seeds = self.spy(monkeypatch)
        monkeypatch.setattr(
            report_module, "polar_degree_fiber_oracle", TestConsolidation.fixed_oracle(7)
        )
        options = AnalysisOptions(seed=5, timings=True)
        report = analyze_polynomial("x*y*z", V3, options).data
        assert report["d_f"]["tame_split"] == 1 and not report["d_f"]["unanimous"]
        assert seeds == [6]
        # the second frame's time counts in the frames stage
        assert list(report["timings"]) == ["hypotheses", "frames", "oracle", "singularities", "total"]

    def test_the_second_frame_must_give_the_same_mu(self, monkeypatch):
        seeds = self.spy(monkeypatch, shift=1)
        monkeypatch.setattr(
            report_module, "polar_degree_fiber_oracle", TestConsolidation.fixed_oracle(7)
        )
        with pytest.raises(InconsistencyError, match=r"mu\(V\) differs between frames: 3 vs 4"):
            analyze_polynomial("x*y*z", V3, AnalysisOptions(seed=5))
        assert seeds == [6]

    def test_a_counterexample_draws_frame_seed_plus_one(self, monkeypatch):
        # the formula and the oracle are made to say d(f) = 1 for the Fermat
        # cubic surface (d(f) = 8); the second frame, drawn for the claim,
        # finds mu(V) = 0 against the 7 of the first
        real_summary = report_module.mu_summary
        monkeypatch.setattr(
            report_module,
            "mu_summary",
            lambda f, seed, caps, smooth=False: replace(
                real_summary(f, seed, caps, smooth=smooth), mu_on=7
            ),
        )
        monkeypatch.setattr(
            report_module, "polar_degree_fiber_oracle", TestConsolidation.fixed_oracle(1)
        )
        seeds = self.spy(monkeypatch)
        with pytest.raises(InconsistencyError, match="differs between frames: 7 vs 0"):
            analyze_polynomial("w^3 + x^3 + y^3 + z^3", V4)
        assert seeds == [2]
