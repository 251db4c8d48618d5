#!/usr/bin/env python3
"""Run the built-in catalog and print a three-method comparison table.

Usage: python scripts/run_catalog.py [--seed N] [--trials N]
"""

import argparse
import sys
import time

from polargrad.catalog import CATALOG, run_entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=3)
    args = ap.parse_args()

    header = f"{'entry':<28} {'formula':>8} {'oracle':>8} {'tame':>8} {'mu':>4} {'mu0':>4} {'status':<18} {'sec':>6}"
    print(header)
    print("-" * len(header))
    failures = 0
    for entry in CATALOG:
        start = time.monotonic()
        res = run_entry(entry, seed=args.seed, trials=args.trials)
        elapsed = time.monotonic() - start
        if entry.oracle_only:
            print(
                f"{entry.name:<28} {'-':>8} {res['d_f']:>8} {'-':>8} {'-':>4} {'-':>4} "
                f"{'oracle-only':<18} {elapsed:>6.1f}"
            )
        else:
            rep = res["report"]
            df = rep["d_f"]
            mu0 = rep["mu0_V"] if rep["mu0_V"] is not None else "-"
            print(
                f"{entry.name:<28} {df['formula']:>8} {df['fiber_oracle']:>8} "
                f"{df['tame_split']:>8} {rep['mu_V']:>4} {mu0:>4} "
                f"{rep['conjecture_status']:<18} {elapsed:>6.1f}"
            )
        if not res["ok"]:
            failures += 1
            for msg in res["mismatches"]:
                print(f"    MISMATCH: {msg}")
    if failures:
        print(f"\n{failures} entries mismatched")
        return 1
    print("\nall entries match their expected invariants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
