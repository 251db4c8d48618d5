"""Command-line surface: flags, exit codes, output formats, determinism."""

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import polargrad.cli
import polargrad.report
from polargrad.catalog import CATALOG
from polargrad.cli import main
from polargrad.parser import _Parser, _degree
from polargrad.report import analyze_polynomial

ROOT = Path(__file__).resolve().parents[1]
# `polar-degree --method all --format json` at seeds 1 and 2 for five inputs,
# as a list of {"argv", "stdout"}
GOLDEN_POLAR_DEGREE = ROOT / "tests" / "data" / "polar_degree_seeds12.json"

# a smooth cubic whose Groebner bases need more than two elements
CAPPED_RUN = ["analyze", "x^3+y^3+z^3+x*y*z", "--vars", "x,y,z", "--max-basis", "2"]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestAnalyze:
    def test_triangle_text(self):
        code, out = run_cli(["analyze", "x*y*z", "--vars", "x,y,z"])
        assert code == 0
        assert "consolidated=1" in out
        assert "out_of_hypothesis" in out

    def test_triangle_json_fields(self):
        code, out = run_cli(["analyze", "x*y*z", "--vars", "x,y,z", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["d"] == 3 and data["n"] == 2
        assert data["d_f"]["consolidated"] == 1
        assert data["mu_V"] == 3
        assert len(data["singular_points"]) == 3
        assert data["conjecture_status"] == "out_of_hypothesis"
        assert data["reduced"]["verdict"] == "reduced"
        assert data["reduced"]["method"].startswith("exact")

    def test_text_and_json_agree(self):
        _, text = run_cli(["analyze", "x*y*z", "--vars", "x,y,z"])
        _, raw = run_cli(["analyze", "x*y*z", "--vars", "x,y,z", "--format", "json"])
        data = json.loads(raw)
        assert f"mu(V)           {data['mu_V']}" in text
        df = data["d_f"]
        assert (
            f"formula={df['formula']} oracle={df['fiber_oracle']} "
            f"tame={df['tame_split']} consolidated={df['consolidated']}" in text
        )

    def test_byte_identical_runs(self):
        args = ["analyze", "x*(x*z - y^2)", "--vars", "x,y,z", "--format", "json"]
        _, first = run_cli(args)
        _, second = run_cli(args)
        assert first == second

    def test_non_isolated_exits_2(self):
        code, _ = run_cli(["analyze", "x^2*y", "--vars", "x,y,z"])
        assert code == 2

    def test_parse_error_exits_1(self):
        code, _ = run_cli(["analyze", "x +", "--vars", "x,y"])
        assert code == 1

    def test_unknown_variable_exits_1(self):
        code, _ = run_cli(["analyze", "x + q", "--vars", "x,y"])
        assert code == 1

    def test_too_many_vars_rejected(self):
        code, _ = run_cli(
            ["analyze", "x", "--vars", "a,b,c,d,e,f,g,h,i", "--max-vars", "8"]
        )
        assert code == 1

    def test_input_is_parsed_once(self, monkeypatch):
        # the CLI parses under --max-input-degree and hands the polynomial
        # to the report, which does not parse the text again
        calls = []
        for module in (polargrad.cli, polargrad.report):

            def spy(text, *args, real=module.parse_poly, **kwargs):
                calls.append(text)
                return real(text, *args, **kwargs)

            monkeypatch.setattr(module, "parse_poly", spy)
        code, out = run_cli(["analyze", "x*y*z", "--vars", "x,y,z", "--format", "json"])
        assert code == 0 and calls == ["x*y*z"]
        assert json.loads(out)["input"] == "x*y*z"

    def test_degree_cap(self):
        code, _ = run_cli(["analyze", "x^13 + y^13", "--vars", "x,y"])
        assert code == 1

    @pytest.mark.parametrize(
        "text,degree",
        [("(x+y+z)^90", 90), ("(x+y)^8*(y+z)^8", 16), ("x^6*(x*y^3)^2", 14)],
    )
    def test_degree_cap_is_checked_before_expansion(self, monkeypatch, text, degree):
        # no product or power above --max-input-degree is ever built, and the
        # message names the degree the input would reach
        built = []
        real_mul, real_factor = _Parser.mul, _Parser.factor

        def mul(self, a, b):
            out = real_mul(self, a, b)
            built.append(_degree(out))
            return out

        def factor(self):
            out = real_factor(self)
            built.append(_degree(out))
            return out

        monkeypatch.setattr(_Parser, "mul", mul)
        monkeypatch.setattr(_Parser, "factor", factor)
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(["analyze", text, "--vars", "x,y,z"])
        monkeypatch.undo()
        assert code == 1
        assert err.getvalue() == f"input error: input degree {degree} exceeds the cap 12\n"
        assert built and max(built) <= 12

    @pytest.mark.parametrize("flag,value", [("--max-degree", "-1"), ("--max-basis", "0")])
    def test_caps_below_one_are_input_errors(self, flag, value):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["analyze", "x^3+y^3+z^3", "--vars", "x,y,z", flag, value])
        assert code == 1 and out == ""
        assert err.getvalue().startswith("input error: caps must be at least 1")

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_point_declared_twice_exits_1(self, tmp_path, first):
        # (0:0:2) and (0:0:1) are one point: whichever comes first, the two
        # declarations contradict each other and neither is kept
        decl = [
            {"point": ["0", "0", "2"], "bp_exponents": [2, 3], "label": "A2"},
            {"point": ["0", "0", "1"], "bp_exponents": [2, 2], "label": "A1"},
        ]
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(decl[first:] + decl[:first]))
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(
                ["analyze", "y^2*z-x^3-x^2*z", "--vars", "x,y,z", "--singular-data", str(path)]
            )
        assert code == 1 and out == ""
        assert err.getvalue() == "input error: point (0 : 0 : 1) is declared twice\n"

    def test_singular_data_declarations(self, tmp_path):
        decl = [
            {"point": ["0", "0", "1"], "bp_exponents": [2, 4], "label": "A3"}
        ]
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(decl))
        code, out = run_cli(
            [
                "analyze",
                "x*(x*z - y^2)",
                "--vars",
                "x,y,z",
                "--singular-data",
                str(path),
                "--format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads(out)
        assert data["mu0_V"] == 1
        assert data["delta_V"]["exponents"] == {"1": 1, "2": -1, "4": 1}
        rows = data["bounds"]["eigenvalue_multiplicities"]["rows"]
        assert {r["k"]: r["holds"] for r in rows} == {1: True, 3: True}

    def test_bad_declaration_exits_1(self, tmp_path):
        decl = [{"point": ["1", "1", "1"], "bp_exponents": [2, 2]}]
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(decl))
        code, _ = run_cli(
            [
                "analyze",
                "x*(x*z - y^2)",
                "--vars",
                "x,y,z",
                "--singular-data",
                str(path),
            ]
        )
        assert code == 1

    def test_oracle_options_checked_before_groebner_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Groebner work ran before the options were checked")

        monkeypatch.setattr(polargrad.report, "mu_summary", forbidden)
        monkeypatch.setattr(polargrad.cli, "polar_degree_formula", forbidden)
        for argv in (
            ["analyze", "x^3+y^3+z^3+x*y*z", "--vars", "x,y,z", "--trials", "0"],
            ["polar-degree", "x^3+y^3+z^3+x*y*z", "--vars", "x,y,z", "--method", "all", "--trials", "0"],
        ):
            err = io.StringIO()
            with redirect_stderr(err):
                code, _ = run_cli(argv)
            assert code == 1
            assert err.getvalue().startswith("input error:")
        # the tame method alone runs no oracle trials
        code, out = run_cli(["polar-degree", "x*y*z", "--vars", "x,y,z", "--method", "tame", "--trials", "0"])
        assert code == 0
        assert "tame_split" in out


    @pytest.mark.parametrize(
        "decl",
        [
            [{"point": ["0", "0", "1"], "bp_exponents": 5}],
            [{"point": ["0", "0", "1"], "bp_exponents": [2, "x"]}],
            [{"point": ["1/0", "0", "1"]}],
            [{"point": ["0", "0", "1"], "weights": ["1/0", "1/2"]}],
            [{"point": ["0", "0", "1"], "bp_exponents": [1, 2]}],
            [["0", "0", "1"]],
        ],
    )
    def test_malformed_declaration_exits_1_before_any_analysis(self, decl, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("mu_summary ran before the declarations were checked")

        monkeypatch.setattr(polargrad.report, "mu_summary", forbidden)
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(decl))
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(["analyze", "x*y*z", "--vars", "x,y,z", "--singular-data", str(path)])
        assert code == 1
        assert err.getvalue().startswith("input error:")


class TestUsage:
    def test_usage_error_exits_1(self):
        # argparse's own exit status 2 would read as a hypothesis violation
        for argv in (["monodromy", "--fermat", "3,3", "--bogus"], ["no-such-command"], []):
            with redirect_stderr(io.StringIO()):
                assert run_cli(argv)[0] == 1

    def test_help_exits_0(self):
        with redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(["monodromy", "--help"])
        assert exc.value.code == 0

    def test_pipeline_flags_only_where_read(self):
        for argv in (
            ["monodromy", "--fermat", "3,3", "--seed", "2"],
            ["monodromy", "--fermat", "3,3", "--timings"],
            ["bounds", "--degree", "3", "--dim", "3", "--max-basis", "2"],
            ["bounds", "--degree", "3", "--dim", "3", "--trials", "5"],
            ["polar-degree", "x*y*z", "--vars", "x,y,z", "--timings"],
            ["polar-degree", "x*y*z", "--vars", "x,y,z", "--singular-data", "decl.json"],
            ["catalog", "run", "line-pair", "--timings"],
            ["catalog", "run", "line-pair", "--format", "json"],
            ["catalog", "run", "line-pair", "--max-vars", "3"],
            ["catalog", "run", "line-pair", "--max-input-degree", "3"],
            ["analyze", "x*y*z", "--vars", "x,y,z", "--modp", "off"],
            ["polar-degree", "x*y*z", "--vars", "x,y,z", "--modp", "off"],
            ["catalog", "run", "line-pair", "--modp", "off"],
            ["catalog", "run", "line-pair", "--jobs", "2"],
        ):
            with redirect_stderr(io.StringIO()):
                assert run_cli(argv)[0] == 1


class TestResourceLimit:
    def test_exceeded_cap_exits_4(self):
        polar_degree = ["polar-degree", *CAPPED_RUN[1:], "--method"]
        for argv in (
            CAPPED_RUN,
            polar_degree + ["formula"],
            polar_degree + ["tame"],
            polar_degree + ["oracle"],
            ["catalog", "run", "all", "--max-basis", "2"],
        ):
            err = io.StringIO()
            with redirect_stderr(err):
                code, _ = run_cli(argv)
            assert code == 4
            assert err.getvalue().startswith("resource limit: basis cap 2 exceeded")

    def test_catalog_prints_each_entry_as_it_finishes(self, monkeypatch):
        # each entry's line is out before the next entry starts, and the
        # entry that reaches the cap is named after the usual message
        out, before = io.StringIO(), []
        real = polargrad.cli.run_entry

        def spy(entry, **kwargs):
            before.append(out.getvalue())
            return real(entry, **kwargs)

        monkeypatch.setattr(polargrad.cli, "run_entry", spy)
        err = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["catalog", "run", "all", "--max-basis", "10"])
        names = [entry.name for entry in CATALOG]
        tripped = names.index("five-node-quartic")
        assert code == 4
        assert before == ["".join(f"pass  {name}\n" for name in names[:i]) for i in range(tripped + 1)]
        assert err.getvalue() == (
            "resource limit: basis cap 10 exceeded in catalog entry five-node-quartic\n"
        )

    def test_caps_do_not_outlive_the_call(self):
        with redirect_stderr(io.StringIO()):
            assert run_cli(CAPPED_RUN)[0] == 4
        report = analyze_polynomial("x*y*z", ("x", "y", "z")).data
        assert report["d_f"]["consolidated"] == 1


class TestPolarDegree:
    def test_method_all(self):
        code, out = run_cli(
            ["polar-degree", "x*y*z", "--vars", "x,y,z", "--method", "all"]
        )
        assert code == 0
        assert out.count("d(f) = 1") == 4  # three methods + consolidated

    def test_method_oracle_only(self):
        code, out = run_cli(
            [
                "polar-degree",
                "x^3 + y^3 + z^3",
                "--vars",
                "x,y,z",
                "--method",
                "oracle",
                "--trials",
                "5",
            ]
        )
        assert code == 0
        assert "d(f) = 4" in out

    def test_formula_on_non_isolated_exits_2(self):
        code, _ = run_cli(
            ["polar-degree", "x^2*y", "--vars", "x,y,z", "--method", "formula"]
        )
        assert code == 2

    def test_fewer_than_one_trial_exits_1(self):
        argv = ["polar-degree", "x*y*z", "--vars", "x,y,z", "--method", "oracle"]
        for trials in ("0", "-3"):
            err = io.StringIO()
            with redirect_stderr(err):
                code, _ = run_cli(argv + ["--trials", trials])
            assert code == 1
            assert err.getvalue().startswith("input error:")

    def test_constant_is_a_hypothesis_violation_on_every_route(self):
        # the gate rejects d < 1 before it builds the Jacobian ideal
        methods = ("formula", "oracle", "tame", "all")
        for argv in (["analyze"], *(["polar-degree", "--method", m] for m in methods)):
            err = io.StringIO()
            with redirect_stderr(err):
                code, _ = run_cli([*argv, "1", "--vars", "x,y"])
            assert code == 2, argv
            assert err.getvalue() == (
                "hypothesis violation: the gradient map needs a non-constant polynomial\n"
            )

    def test_oracle_accepts_non_reduced(self):
        code, out = run_cli(
            ["polar-degree", "x^2*y", "--vars", "x,y", "--method", "oracle"]
        )
        assert code == 0
        assert "d(f) = 1" in out

    def test_json_is_byte_identical_to_the_golden_file(self):
        # pins every method's details, frame_draws included
        cases = json.loads(GOLDEN_POLAR_DEGREE.read_text(encoding="utf-8"))
        assert len(cases) == 10
        for case in cases:
            code, out = run_cli(case["argv"])
            assert code == 0
            assert out == case["stdout"], case["argv"]


class TestMonodromy:
    def test_fermat(self):
        code, out = run_cli(["monodromy", "--fermat", "3,3", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["factored"] == "(t^3-1)^3*(t-1)^-1"
        assert data["degree"] == 8
        assert data["mu0"] == 2
        mults = {row["order"]: row["multiplicity"] for row in data["multiplicities"]}
        assert mults == {1: 2, 3: 3}

    def test_bp(self):
        code, out = run_cli(["monodromy", "--bp", "3,4,2", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["degree"] == 6 and data["mu0"] == 0

    def test_weights(self):
        code, out = run_cli(["monodromy", "--weights", "1/3,1/5", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["degree"] == 8

    def test_invalid_weights_exit_1(self):
        code, _ = run_cli(["monodromy", "--weights", "2/3,2/3"])
        assert code == 1

    def test_zero_denominator_weight_exits_1(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(["monodromy", "--weights", "1/0,1/2"])
        assert code == 1
        assert err.getvalue().startswith("input error:")

    def test_exactly_one_mode_required(self):
        code, _ = run_cli(["monodromy", "--bp", "2,2", "--fermat", "2,2"])
        assert code == 1


class TestBounds:
    def test_cubic_surface(self):
        code, out = run_cli(
            ["bounds", "--degree", "3", "--dim", "3", "--mu0", "0", "--format", "json"]
        )
        data = json.loads(out)
        assert code == 0
        assert data["primitive_betti"] == 2
        assert data["polar_degree_lower_bound_rhs"] == 2
        assert data["surface_mu0_criterion"]["certified"]

    def test_quintic_surface_betti(self):
        code, out = run_cli(["bounds", "--degree", "5", "--dim", "3", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["primitive_betti"] == 12

    def test_dim_four(self):
        code, out = run_cli(["bounds", "--degree", "3", "--dim", "4", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["primitive_betti"] == 6

    def test_negative_mu0_rejected(self):
        # a Milnor count is never negative
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["bounds", "--degree", "3", "--dim", "3", "--mu0", "-5"])
        assert code == 1 and out == ""
        assert err.getvalue().startswith("input error:")


class TestCatalog:
    def test_list_names(self):
        code, out = run_cli(["catalog", "list"])
        assert code == 0
        for name in ("cremona-triangle", "e6-cubic", "a1a5-cubic", "five-node-quartic"):
            assert name in out

    def test_run_single(self):
        code, out = run_cli(["catalog", "run", "cremona-triangle"])
        assert code == 0
        assert out.strip() == "pass  cremona-triangle"

    def test_unknown_entry(self):
        code, _ = run_cli(["catalog", "run", "no-such-entry"])
        assert code == 1


def test_readme_commands_exit_0():
    # every `polargrad` line of the sh block under "## Command line", without
    # its trailing comment
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        line.split("#", 1)[0] for line in block.splitlines() if line.startswith("polargrad ")
    ]
    assert len(commands) == 11
    for line in commands:
        with redirect_stderr(io.StringIO()):
            code, _ = run_cli(shlex.split(line)[1:])
        assert code == 0, line
