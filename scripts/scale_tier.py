#!/usr/bin/env python3
"""Time the scale-tier inputs and check their verdicts with `catalog.run_entry`.

Usage: PYTHONPATH=src python scripts/scale_tier.py [--repeat N]

Each input is run N times in this one process (default 3) and its line
gives the median wall time in seconds, d(f) and mu(V).  `INPUTS` (tier 2,
with the smooth plane octic, whose Jacobian gate is a real Groebner run)
and `TIER_3` are the one table of these inputs; acceptance criteria 11-13
read it from this file.  `run_entry` checks that every d(f) route gives the
expected value unanimously, and that mu(V) and the rational singular points
with their Milnor numbers match.  On every entry but the A1 quintic
threefold, mu(V) is the sum of the points' Milnor numbers, so the points
found are all of them; that entry's note says why its are not.  A run that raises is a wrong
verdict, and the rest of the tier still runs.  The exit status is 1 when
any run gives another verdict, else 0.
"""

import argparse
import statistics
import sys
import time

from polargrad.catalog import CatalogEntry, CatalogSingularity, run_entry


def _entry(
    name: str, text: str, vars: str, d_f: int, *points: CatalogSingularity, mu: int | None = None, note: str = ""
) -> CatalogEntry:
    """A scale-tier input, whose mu(V) is the sum of its rational points'
    Milnor numbers unless `mu` says otherwise."""
    if mu is None:
        mu = sum(p.mu for p in points)
    return CatalogEntry(name, text, tuple(vars), d_f, note=note, mu=mu, singularities=points)


INPUTS = (
    _entry("fermat-quartic-p3", "w^4+x^4+y^4+z^4", "wxyz", 27),
    _entry("fermat-cubic-p4", "v^3+w^3+x^3+y^3+z^3", "vwxyz", 16),
    _entry("fermat-cubic-p5", "u^3+v^3+w^3+x^3+y^3+z^3", "uvwxyz", 32),
    _entry(
        "nodal-cubic-p5", "u*(v^2+w^2+x^2+y^2+z^2)+v^3+w^3+x^3+y^3+z^3", "uvwxyz", 31,
        CatalogSingularity(tuple("100000"), "A1", 1),
    ),
    _entry("fermat-quintic-p3", "w^5+x^5+y^5+z^5", "wxyz", 64),
    _entry("a4-quintic-p3", "w^3*x*y+x^5+y^5+z^5", "wxyz", 60, CatalogSingularity(tuple("1000"), "A4", 4)),
    _entry("fermat-quartic-p4", "v^4+w^4+x^4+y^4+z^4", "vwxyz", 81),
    _entry("octic-p2", "x^8+y^8+z^8+x^3*y^3*z^2", "xyz", 49),
)

# d(f) = (d-1)^n - mu(V) for isolated singularities, each checked by hand
TIER_3 = (
    # Fermat quintic threefold: grad f = 5*(x_i^4) vanishes only at 0, so
    # V is smooth and d(f) = 4^4 = 256
    _entry("fermat-quintic-p4", "v^5+w^5+x^5+y^5+z^5", "vwxyz", 256),
    # Fermat quartic fourfold: smooth as above, d(f) = 3^5 = 243
    _entry("fermat-quartic-p5", "u^4+v^4+w^4+x^4+y^4+z^4", "uvwxyz", 243),
    # v^2*q + w^4+x^4+y^4+z^4 with q = w^2+x^2+y^2+z^2: f_v = 2*v*q and
    # f_{w_i} = 2*w_i*(v^2 + 2*w_i^2).  v = 0 forces every w_i = 0, so v != 0
    # and q = 0; each w_i is 0 or has w_i^2 = -v^2/2, and then q = 0 forces
    # all w_i = 0.  At (1:0:0:0:0) f is q plus quartic terms, a Morse point
    # (A1, mu 1): d(f) = 3^4 - 1 = 80
    _entry(
        "nodal-quartic-p4", "v^2*(w^2+x^2+y^2+z^2)+w^4+x^4+y^4+z^4", "vwxyz", 80,
        CatalogSingularity(tuple("10000"), "A1", 1),
    ),
    # f_y = 6*y^5 and f_z = 6*z^5 give y = z = 0; f_w = 4*w^3*x^2 then needs
    # w = 0, where f_x = 6*x^5 forces x = 0, or x = 0.  So (1:0:0:0) is the
    # one singular point, where f = x^2*(1 + x^4) + y^6 + z^6 is x^2+y^6+z^6
    # up to a change of x (mu 1*5*5 = 25): d(f) = 5^3 - 25 = 100
    _entry(
        "sextic-p3", "w^4*x^2+x^6+y^6+z^6", "wxyz", 100,
        CatalogSingularity(tuple("1000"), "x^2+y^6+z^6", 25),
    ),
    # a dense quartic threefold Q: not checked by hand.  mu = 0 rests on the
    # QQ Jacobian gate (projective dimension -1, an empty singular scheme),
    # and the three d(f) routes agree on 3^4 = 81
    _entry("dense-quartic-p4", "v^4+w^4+x^4+y^4+z^4+2*v*w*x*y-3*w*x*y*z+v^2*x*z+w^3*y-x^2*z^2", "vwxyz", 81),
    # v^3*q + w^5+x^5+y^5+z^5 with q = w^2+x^2+y^2+z^2: f_v = 3*v^2*q and
    # f_{w_i} = w_i*(2*v^3 + 5*w_i^3).  v = 0 forces every w_i = 0, so v = 1,
    # q = 0, and each w_i is 0 or a cube root s of -2/5.  The s^2 are c^2
    # times cube roots of unity (c real), and q = 0 needs their sum to vanish:
    # none of the w_i, or three of them with pairwise different s^2 (4 * 3!
    # = 24 points, none rational).  On v = 1, h = q + sum w_i^5 has the
    # Hessian diag(2 + 20*w_i^3), entries 2 or -6, so every point is a Morse
    # point (A1, mu 1): mu(V) = 25 and d(f) = 4^4 - 25 = 231
    _entry(
        "a1-quintic-p4", "v^3*(w^2+x^2+y^2+z^2)+w^5+x^5+y^5+z^5", "vwxyz", 231,
        CatalogSingularity(tuple("10000"), "A1", 1),
        mu=25,
        note="enumeration_complete is false: of its 25 A1 points only (1:0:0:0:0) is "
        "rational; at the other 24, three of w, x, y, z are cube roots of -2/5 with "
        "pairwise different squares and the fourth is 0",
    ),
    # u^2*Q + v^4+w^4+x^4+y^4+z^4 with Q = v^2+w^2+x^2+y^2+z^2: f_u = 2*u*Q
    # and f_{w_i} = 2*w_i*(u^2 + 2*w_i^2).  u = 0 forces every w_i = 0, so
    # u = 1, Q = 0, and each w_i is 0 or has w_i^2 = -1/2; m of those give
    # Q = -m/2, so m = 0.  At (1:0:0:0:0:0) f is Q plus quartic terms, a
    # Morse point (A1, mu 1): d(f) = 3^5 - 1 = 242
    _entry(
        "nodal-quartic-p5", "u^2*(v^2+w^2+x^2+y^2+z^2)+v^4+w^4+x^4+y^4+z^4", "uvwxyz", 242,
        CatalogSingularity(tuple("100000"), "A1", 1),
    ),
    # Not run: the dense quintic threefold
    # v^5+w^5+x^5+y^5+z^5+2*v*w*x*y*z-3*v^2*w*x*y+w^3*y*z+x^4*z, expected
    # smooth with d(f) = 4^4 = 256.  Its QQ Jacobian gate runs for more than
    # 15 minutes; only a gate over GF(32003) has shown it smooth (1.57 s), so
    # no assertion uses it.  That modular gate is deleted with every GF(p)
    # branch: coefficients are rational only.
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=3, help="runs per input; the median is printed")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    entries = INPUTS + TIER_3
    width = max(len(entry.text) for entry in entries)
    print(f"{'input':<{width}} {'sec':>7} {'d(f)':>5} {'mu':>4}  verdict")
    wrong = 0
    for entry in entries:
        seconds, problems, report = [], [], None
        for _ in range(args.repeat):
            start = time.perf_counter()
            try:
                result = run_entry(entry)
            except Exception as exc:  # a crash is a wrong verdict, not the end of the tier
                problems.append(f"ERROR: {type(exc).__name__}: {exc}")
                break
            seconds.append(time.perf_counter() - start)
            report = result["report"]
            problems += [f"MISMATCH: {msg}" for msg in result["mismatches"]]
        wrong += bool(problems)
        sec = f"{statistics.median(seconds):.3f}" if seconds else "-"
        df, mu = (report["d_f"]["consolidated"], report["mu_V"]) if report else ("-", "-")
        print(f"{entry.text:<{width}} {sec:>7} {df!s:>5} {mu!s:>4}  {'WRONG' if problems else 'ok'}")
        for problem in dict.fromkeys(problems):
            print(f"    {problem}")
    if wrong:
        print(f"\n{wrong} inputs gave a wrong verdict")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
