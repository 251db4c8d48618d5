"""Command-line interface.

Commands: analyze, polar-degree, monodromy, bounds, catalog.
Exit codes: 0 success, 1 input or usage error, 2 hypothesis violation, 3
internal inconsistency (methods disagree after retries, or a catalog
mismatch), 4 resource limit (a --max-basis or --max-degree cap was exceeded).
Each command takes only the flags it reads.  The two cap flags make one
`Caps` value, which the command passes down with its work, so nothing set by
one `main` call outlives it.  `catalog run` runs its entries one after
another in this process and prints each entry's line as it finishes, in
catalog order; a resource limit names the entry that reached it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import monodromy as mono
from .monodromy import KNotDividingD, NonIntegralResult
from .catalog import BY_NAME, CATALOG, run_entry
from .groebner import DEFAULT_CAPS, Caps, ResourceLimit
from .hypersurface import (
    HypersurfaceError,
    InconsistentMu,
    NotIsolated,
    TransversalityNotFound,
)
from .parser import ParseError, parse_poly
from .polar import (
    HypothesisError,
    MethodsDisagree,
    OracleInconsistent,
    PolarError,
    PositiveDimensionalFiber,
    check_oracle_options,
    check_surface_criterion,
    consolidate,
    polar_degree_fiber_oracle,
    polar_degree_formula,
    polar_degree_tame,
)
from .poly import NotHomogeneous, PolyError, ZeroPolynomial
from .report import (
    AnalysisOptions,
    InconsistencyError,
    InputError,
    analyze_parsed,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_INCONSISTENT = 3
EXIT_RESOURCE = 4


def _common_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the commands that run the Groebner pipeline."""
    p.add_argument("--seed", type=int, default=1, help="deterministic seed (default 1)")
    p.add_argument("--trials", type=int, default=3, help="oracle trials (default 3)")
    p.add_argument("--max-basis", type=int, default=DEFAULT_CAPS.max_basis)
    p.add_argument("--max-degree", type=int, default=DEFAULT_CAPS.max_degree)


def _poly_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("poly", help="polynomial text, e.g. 'x*y*z'")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--max-vars", type=int, default=8)
    p.add_argument("--max-input-degree", type=int, default=12)


def _caps(args) -> Caps:
    return Caps(max_basis=args.max_basis, max_degree=args.max_degree)


def _parse_input(args):
    """The variable names and the polynomial, checked against --max-vars and
    --max-input-degree."""
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not 2 <= len(names) <= args.max_vars:
        raise InputError(f"need between 2 and {args.max_vars} variables, got {len(names)}")
    return names, parse_poly(args.poly, names, max_degree=args.max_input_degree)


def _load_declarations(args) -> list[dict]:
    if not args.singular_data:
        return []
    try:
        with open(args.singular_data, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read singular data: {exc}") from exc
    if not isinstance(data, list):
        raise InputError("singular data must be a JSON list")
    return data


def cmd_analyze(args) -> int:
    names, f = _parse_input(args)
    options = AnalysisOptions(
        seed=args.seed,
        trials=args.trials,
        declarations=_load_declarations(args),
        timings=args.timings,
        caps=_caps(args),
    )
    report = analyze_parsed(f, args.poly, options)
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK if report.data["d_f"]["unanimous"] else EXIT_INCONSISTENT


def cmd_polar_degree(args) -> int:
    if args.method in ("oracle", "all"):
        check_oracle_options(args.trials)
    names, f = _parse_input(args)
    caps = _caps(args)
    runs = []
    if args.method in ("formula", "all"):
        runs.append(polar_degree_formula(f, args.seed, caps))
    if args.method in ("oracle", "all"):
        runs.append(polar_degree_fiber_oracle(f, args.trials, args.seed, caps))
    if args.method in ("tame", "all"):
        runs.append(polar_degree_tame(f, args.seed + 1, caps))
    payload = {
        "input": args.poly,
        "vars": list(names),
        "methods": [
            {"method": r.method, "value": r.value, "seed": r.seed, "details": r.details}
            for r in runs
        ],
    }
    value, unanimous = consolidate([r.value for r in runs])
    payload["consolidated"] = value if unanimous else None
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for r in runs:
            print(f"{r.method:<14} d(f) = {r.value}")
        if payload["consolidated"] is not None:
            print(f"consolidated   d(f) = {payload['consolidated']}")
        else:
            print("consolidated   (methods disagree)")
    return EXIT_OK if payload["consolidated"] is not None else EXIT_INCONSISTENT


def _divisor_payload(d: mono.CycDivisor) -> dict:
    degree = mono.divisor_degree(d)
    table = [
        {"order": k, "multiplicity": mono.mult_at_order(d, k)}
        for k in mono.support_orders(d)
    ]
    return {
        "factored": mono.factored_string(d),
        "exponents": mono.to_json_map(d),
        "degree": degree,
        "multiplicities": table,
        "mu0": mono.mu0_from_charpoly(d),
    }


def cmd_monodromy(args) -> int:
    chosen = [x for x in (args.bp, args.weights, args.fermat) if x]
    if len(chosen) != 1:
        raise InputError("choose exactly one of --bp, --weights, --fermat")
    if args.bp:
        exponents = [int(x) for x in args.bp.split(",")]
        divisor = mono.bp_charpoly(exponents)
    elif args.weights:
        try:
            weights = [Fraction(x) for x in args.weights.split(",")]
        except ZeroDivisionError as exc:
            raise InputError(f"bad --weights {args.weights!r}: {exc}") from exc
        divisor = mono.wh_charpoly(weights)
    else:
        d, n = (int(x) for x in args.fermat.split(","))
        divisor = mono.fermat_charpoly(d, n)
    payload = _divisor_payload(divisor)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"divisor   {payload['factored']}")
        print(f"degree    {payload['degree']}")
        for row in payload["multiplicities"]:
            print(f"order {row['order']:>3}  multiplicity {row['multiplicity']}")
        print(f"mu0       {payload['mu0']}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    d, n = args.degree, args.dim
    if d < 2 or n < 2:
        raise InputError("need --degree >= 2 and --dim >= 2")
    if args.mu0 is not None and args.mu0 < 0:
        raise InputError(f"need --mu0 >= 0, got {args.mu0}")
    payload: dict = {
        "degree": d,
        "dim": n,
        "primitive_betti": mono.primitive_betti(d, n - 2),
        "reference_multiplicities": [
            {"k": k, "mult": mono.fermat_mult_reference(d, n, k)}
            for k in range(1, d + 1)
            if d % k == 0
        ],
    }
    if args.mu0 is not None:
        if d > 2 and n >= 3:
            payload["polar_degree_lower_bound_rhs"] = (
                mono.primitive_betti(d, n - 2) - args.mu0
            )
        if n == 3:
            payload["surface_mu0_criterion"] = check_surface_criterion(d, args.mu0)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"primitive betti b0_{n-2}({d}) = {payload['primitive_betti']}")
        for row in payload["reference_multiplicities"]:
            print(f"reference mult at order {row['k']}: {row['mult']}")
        if "polar_degree_lower_bound_rhs" in payload:
            print(f"lower bound rhs = {payload['polar_degree_lower_bound_rhs']}")
        if "surface_mu0_criterion" in payload:
            s = payload["surface_mu0_criterion"]
            print(f"surface criterion: {s['mu0']} < {s['bound']} -> certified={s['certified']}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in CATALOG:
            kind = "oracle-only" if entry.oracle_only else "full"
            print(f"{entry.name:<28} {kind:<11} d(f)={entry.d_f}  {entry.text}")
        return EXIT_OK
    if args.target == "all":
        entries = list(CATALOG)
    else:
        if args.target not in BY_NAME:
            raise InputError(f"unknown catalog entry {args.target!r}")
        entries = [BY_NAME[args.target]]
    caps = _caps(args)
    failed = False
    for entry in entries:
        try:
            res = run_entry(entry, seed=args.seed, trials=args.trials, caps=caps)
        except ResourceLimit as exc:
            raise ResourceLimit(f"{exc} in catalog entry {entry.name}") from exc
        print(f"{'pass' if res['ok'] else 'FAIL'}  {res['name']}", flush=True)
        for msg in res["mismatches"]:
            print(f"      {msg}", flush=True)
            failed = True
    return EXIT_INCONSISTENT if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="polargrad",
        description="Exact polar-degree, Milnor-number and monodromy analysis "
        "of projective hypersurfaces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full verdict bundle for one polynomial")
    _poly_flags(p)
    p.add_argument(
        "--singular-data",
        default=None,
        help="JSON file with singularity declarations "
        '[{"point": [..], "bp_exponents": [..] | "weights": [..], "label": ..}]',
    )
    _common_flags(p)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("polar-degree", help="degree of the gradient map")
    _poly_flags(p)
    p.add_argument("--method", choices=("formula", "oracle", "tame", "all"), default="all")
    _common_flags(p)
    p.set_defaults(func=cmd_polar_degree)

    p = sub.add_parser("monodromy", help="monodromy characteristic divisors")
    p.add_argument("--bp", default=None, help="pure-power exponents, e.g. 3,4,2")
    p.add_argument("--weights", default=None, help="rational weights, e.g. 1/3,1/5")
    p.add_argument("--fermat", default=None, help="d,n for the Fermat closed form")
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("bounds", help="reference Betti numbers and multiplicity bounds")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mu0", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("catalog", help="list or run the example catalog")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("target", nargs="?", default="all")
    _common_flags(p)
    p.set_defaults(func=cmd_catalog)

    for name, p in sub.choices.items():
        if name != "catalog":  # catalog prints one pass or FAIL line per entry
            p.add_argument("--format", choices=("text", "json"), default="text")
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # argparse's usage error; here 2 is a hypothesis violation
            return EXIT_INPUT
        raise
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, ParseError, ValueError, NonIntegralResult, KNotDividingD) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        HypothesisError,
        NotHomogeneous,
        ZeroPolynomial,
        NotIsolated,
        TransversalityNotFound,
    ) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (
        InconsistencyError,
        InconsistentMu,
        MethodsDisagree,
        OracleInconsistent,
        PositiveDimensionalFiber,
    ) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (PolyError, PolarError, HypersurfaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
