#!/usr/bin/env python3
"""Reach report: the functions under src/ that no public path executes.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/reach.py

One process runs, under a `sys.settrace` hook that records every function
called:
- every CLI command (`COMMANDS`: each subcommand and flag, both output
  formats, and inputs that must fail);
- `catalog.run_entry` on every catalog entry at seeds 1-3;
- `run_entry` on the inputs of `perfbench/workloads.py`, at the benchmark's
  analysis seed 1 (the file is read, never changed);
- `run_entry` on the scale tier of `scripts/scale_tier.py`, less
  dense-quartic-p4, whose oracle alone takes seconds.

It then reads every module of src/polargrad with `ast` and prints each
function that none of those runs executed, with its line count (decorators,
docstring and nested functions included; a nested function is listed only
when the function around it ran), and the total.  `ALLOWED` lists the
functions known to be unreached, each with its reason.  The exit status is 1
when an unreached function is missing from it, else 0; an entry that a run
now reaches is printed as stale, so that the list only shrinks.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polargrad"

# the functions known to be unreached, grouped by the reason each one stays
TRACED = "TRACED name: perfbench/layertrace.py looks it up by name"
UNDER_TRACED = "called only under a TRACED name"
ORACLE = "test oracle: tests/helpers.py or a test's reference builds on it"
LIBRARY = "library API: exported from polargrad and tested, called by no command"
ERROR = "error path: only a failure the commands' inputs do not hit"
DUNDER = "dunder of a value type, or a helper of its operators"
ALLOWED = {
    **dict.fromkeys(
        (
            "groebner.buchberger", "groebner.normal_form", "groebner.s_polynomial",
            "groebner.intersect", "groebner.ideal_quotient", "groebner.saturate",
            "groebner.saturate_ideal", "groebner.staircase", "groebner.hilbert_numerator",
            "groebner.local_component_dim", "hypersurface.local_milnor_number",
            "poly.squarefree_probe", "poly.substitute_linear",
        ),
        TRACED,
    ),
    **dict.fromkeys(
        (
            "groebner._block_key", "groebner._composed", "groebner.elimination_order",
            "groebner.leading_monomial", "groebner._coefficients", "groebner._reduce",
            "groebner.exact_div", "groebner._Run.polys", "groebner.Ideal.basis",
            "groebner.Ideal.contains", "groebner.Ideal.contains_ideal", "groebner._fresh_var",
            "groebner._prepend_var", "groebner._minimalize", "poly.mono_mul", "poly.mono_divides",
            "poly.mono_div", "poly.mono_lcm", "poly.Poly.zero", "poly.Poly.constant",
            "poly.Poly.variable", "poly.det_fraction", "poly.homogeneous_parts",
            "poly.line_restriction", "poly._univar_gcd_degree",
        ),
        UNDER_TRACED,
    ),
    **dict.fromkeys(
        (
            "groebner.Ideal.is_unit", "groebner._divide_one_minus_t",
            "groebner.zero_dim_degree_projective", "poly.Poly.scale", "poly.Poly.subs",
            "poly.dehomogenize", "poly._grevlex_key", "poly.ProjectivePoint.chart",
            "poly.ProjectivePoint.affine_coords",
        ),
        ORACLE,
    ),
    **dict.fromkeys(("polar.is_homaloidal", "poly.poly_text"), LIBRARY),
    **dict.fromkeys(("hypersurface.has_isolated_singularities",), ERROR),
    **dict.fromkeys(
        (
            "groebner.Ideal.__setattr__", "groebner.Ideal.__eq__", "groebner.Ideal.__hash__",
            "groebner.Ideal.__repr__", "monodromy.CycDivisor.__setattr__",
            "monodromy.CycDivisor.__eq__", "monodromy.CycDivisor.__hash__",
            "monodromy.CycDivisor.__repr__", "poly.Poly.__init__", "poly.Poly.__setattr__",
            "poly.Poly._check_compatible", "poly.Poly.__add__", "poly.Poly.__neg__",
            "poly.Poly.__sub__", "poly.Poly.__mul__", "poly.Poly.__rmul__", "poly.Poly.__pow__",
            "poly.Poly.__eq__", "poly.Poly.__hash__", "poly.Poly.__repr__",
            "poly.ProjectivePoint.__str__",
        ),
        DUNDER,
    ),
}

# every subcommand and flag, each output format, and inputs that must fail
QUARTIC = "x^4 + y^4 + z^4 - x^2*y*z"
COMMANDS = [
    ["catalog", "list"],
    ["catalog", "run", "all"],
    ["catalog", "run", "e6-cubic", "--seed", "2", "--trials", "4"],
    ["analyze", "x*y*z", "--vars", "x,y,z", "--timings"],
    ["analyze", "x^2*w + x*z^2 + y^3", "--vars", "w,x,y,z"],
    ["bounds", "--degree", "3", "--dim", "3", "--mu0", "0"],
    ["bounds", "--degree", "4", "--dim", "2"],
    ["monodromy", "--bp", "3,4,2"],
    ["monodromy", "--bp", "17,19"],  # factors 323 past trial division
    ["monodromy", "--weights", "1/3,1/5"],
    ["monodromy", "--fermat", "3,3"],
    *(
        ["polar-degree", text, "--vars", vars, "--method", method]
        for text, vars in (("x*(x*z - y^2)", "x,y,z"), (QUARTIC, "x,y,z"))
        for method in ("formula", "oracle", "tame", "all")
    ),
    ["polar-degree", "x^2*y", "--vars", "x,y", "--method", "oracle"],
    # inputs that must fail: a parse error, a constant, a form that is not
    # homogeneous, a tripped cap, a bad flag value, a square factor for the
    # formula and an unknown entry
    ["analyze", "x*+y", "--vars", "x,y,z"],
    ["analyze", "7", "--vars", "x,y,z"],
    ["analyze", "x^2 + y", "--vars", "x,y,z"],
    ["polar-degree", "x^3 + y^3 + z^3", "--vars", "x,y,z", "--max-basis", "1"],
    ["monodromy", "--bp", "0,2"],
    ["polar-degree", "x^2*y", "--vars", "x,y,z", "--method", "formula"],
    ["catalog", "run", "no-such-entry"],
]


def _load(path: Path):
    """The module at `path`, imported under its own name and not cached."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


def run_everything() -> None:
    """Every public path listed in the module docstring, output discarded."""
    from polargrad import cli
    from polargrad.catalog import BY_NAME, CATALOG, run_entry

    with tempfile.TemporaryDirectory() as tmp:
        e6 = BY_NAME["e6-cubic"]
        declared = Path(tmp) / "e6.json"
        declared.write_text(json.dumps([s.declaration() for s in e6.singularities]))
        commands = [
            *COMMANDS,
            ["analyze", e6.text, "--vars", ",".join(e6.vars), "--singular-data", str(declared)],
        ]
        for argv in commands:
            formats = [[]] if argv[0] == "catalog" else [[], ["--format", "json"]]
            for extra in formats:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv + extra)
    for seed in (1, 2, 3):
        for entry in CATALOG:
            run_entry(entry, seed=seed)
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    for entries in (workloads.WARMUP, *workloads.WORKLOADS.values()):
        for entry in entries:
            run_entry(entry, seed=1)
    tier = _load(ROOT / "scripts" / "scale_tier.py")
    for entry in (*tier.INPUTS, *tier.TIER_3):
        if entry.name != "dense-quartic-p4":
            run_entry(entry, seed=1)


def functions(path: Path) -> list[tuple[str, int, int, str | None]]:
    """(qualified name, first line, line count, the qualified name of the
    function around it or None) of each function defined in `path`; the
    first line is that of its first decorator, as in `co_firstlineno`."""
    out = []

    def visit(node, prefix: str, around: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = prefix + child.name
                out.append((name, first, child.end_lineno - first + 1, around))
                visit(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", around)
            else:
                visit(child, prefix, around)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", None)
    return out


def main() -> int:
    sys.dont_write_bytecode = True  # the checkout is read, never written
    called: dict[int, object] = {}

    def hook(frame, event, arg):
        called[id(frame.f_code)] = frame.f_code  # no line events: return None

    sys.settrace(hook)
    try:
        run_everything()
    finally:
        sys.settrace(None)

    reached = {
        (os.path.realpath(code.co_filename), code.co_firstlineno) for code in called.values()
    }
    unreached, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        found = functions(path)
        ran = {name for name, first, _, _ in found if (str(path.resolve()), first) in reached}
        for name, _, lines, around in found:
            if name not in ran and (around is None or around in ran):
                unreached.append((name, lines))
                total += lines
    missing = [name for name, _ in unreached if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - {name for name, _ in unreached})
    for name, lines in unreached:
        print(f"{lines:5d}  {name}{'' if name in ALLOWED else '   NOT ALLOWED'}")
    print(f"{total:5d}  lines in {len(unreached)} unreached functions")
    for name in stale:
        print(f"stale allow-list entry (reached or gone): {name}")
    for name in missing:
        print(f"unreached and not in the allow-list: {name}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
