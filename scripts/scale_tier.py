#!/usr/bin/env python3
"""Time `analyze_polynomial` on the scale-tier inputs and check their verdicts.

Usage: PYTHONPATH=src python scripts/scale_tier.py [--repeat N]

Each input is analyzed N times in this one process (default 3) and its line
gives the median wall time in seconds, d(f) and mu(V).  The inputs and their
expected values are those of acceptance criteria 11 and 12, plus the smooth
plane octic x^8+y^8+z^8+x^3*y^3*z^2 (d(f) = 49, mu = 0), whose Jacobian
gate is a real Groebner run: every d(f) route must give the expected
value unanimously, and mu(V) and the rational singular points with their
Milnor numbers must match, on every run.  The exit status
is 1 when any run gives another verdict, else 0.
"""

import argparse
import statistics
import sys
import time

from polargrad.report import analyze_polynomial

# (text, variables, d(f), {point: Milnor number})
INPUTS = (
    ("w^4+x^4+y^4+z^4", "wxyz", 27, {}),
    ("v^3+w^3+x^3+y^3+z^3", "vwxyz", 16, {}),
    ("u^3+v^3+w^3+x^3+y^3+z^3", "uvwxyz", 32, {}),
    ("u*(v^2+w^2+x^2+y^2+z^2)+v^3+w^3+x^3+y^3+z^3", "uvwxyz", 31, {("1", "0", "0", "0", "0", "0"): 1}),
    ("w^5+x^5+y^5+z^5", "wxyz", 64, {}),
    ("w^3*x*y+x^5+y^5+z^5", "wxyz", 60, {("1", "0", "0", "0"): 4}),
    ("v^4+w^4+x^4+y^4+z^4", "vwxyz", 81, {}),
    ("x^8+y^8+z^8+x^3*y^3*z^2", "xyz", 49, {}),
)


def verdict_ok(report: dict, d_f: int, points: dict) -> bool:
    df = report["d_f"]
    found = {tuple(p["point"]): p["mu"] for p in report["singular_points"]}
    return (
        df["formula"] == df["fiber_oracle"] == df["tame_split"] == df["consolidated"] == d_f
        and df["unanimous"]
        and found == points
        and report["mu_V"] == sum(points.values())
        and report["enumeration_complete"]
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=3, help="runs per input; the median is printed")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"{'input':<46} {'sec':>7} {'d(f)':>5} {'mu':>4}  verdict")
    wrong = 0
    for text, vars, d_f, points in INPUTS:
        seconds, ok = [], True
        for _ in range(args.repeat):
            start = time.perf_counter()
            report = analyze_polynomial(text, tuple(vars)).data
            seconds.append(time.perf_counter() - start)
            ok &= verdict_ok(report, d_f, points)
        wrong += not ok
        print(
            f"{text:<46} {statistics.median(seconds):>7.3f} {report['d_f']['consolidated']!s:>5} "
            f"{report['mu_V']:>4}  {'ok' if ok else 'WRONG'}"
        )
    if wrong:
        print(f"\n{wrong} inputs gave a wrong verdict")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
