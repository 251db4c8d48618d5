"""The benchmark's inputs and one pass over them.

Catalog inputs are taken from `polargrad.catalog` with their expected values.
Every other input is a `CatalogEntry` whose expected value is checked by hand
in the comment beside it, so one routine (`catalog.run_entry`) checks every
verdict.  The three workloads together cover all 13 catalog entries.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass

from polargrad.catalog import BY_NAME, CatalogEntry, CatalogSingularity, run_entry

XYZ = ("x", "y", "z")
WXYZ = ("w", "x", "y", "z")


def _extra(name, text, vars, d_f, mu=None, mu0=None, singular=(), oracle_only=False):
    return CatalogEntry(
        name=name,
        text=text,
        vars=vars,
        d_f=d_f,
        mu=mu,
        mu0=mu0,
        # every analyzed extra is a plane curve, outside the conjecture's n > 2
        status=None if oracle_only else "out_of_hypothesis",
        singularities=tuple(CatalogSingularity(p, label, m) for p, label, m in singular),
        oracle_only=oracle_only,
        note="benchmark input",
    )


WORKLOADS: dict[str, tuple[CatalogEntry, ...]] = {
    # No singular points and an empty oracle base locus: the time goes to
    # tame_split -> saturate over QQ.
    "smooth": (
        BY_NAME["smooth-quadric-p2"],
        BY_NAME["smooth-quadric-p3"],
        BY_NAME["fermat-cubic-p2"],
        # smooth member of the Hesse pencil (singular only for t^3 = -27):
        # d(f) = (3-1)^2 = 4
        _extra("hesse-cubic", "x^3 + y^3 + z^3 + x*y*z", XYZ, 4, mu=0, mu0=0),
        # smooth Fermat quartic curve: d(f) = (4-1)^2 = 9
        _extra("fermat-quartic-p2", "x^4 + y^4 + z^4", XYZ, 9, mu=0, mu0=0),
        BY_NAME["fermat-cubic-p3"],
    ),
    # Singular inputs with declarations: frame, points and local Milnor
    # numbers over QQ, plus the oracle saturating by each partial over GF(p).
    "singular": (
        BY_NAME["cremona-triangle"],
        BY_NAME["conic-tangent"],
        BY_NAME["e6-cubic"],
        BY_NAME["a1a5-cubic"],
        BY_NAME["five-node-quartic"],
        # cuspidal cubic, one A2 point: d(f) = 4 - 2 = 2
        _extra("cusp-cubic", "x^2*z - y^3", XYZ, 2, mu=2,
               singular=((("0", "0", "1"), "A2", 2),)),
        # nodal cubic, one A1 point: d(f) = 4 - 1 = 3
        _extra("nodal-cubic", "y^2*z - x^3 - x^2*z", XYZ, 3, mu=1,
               singular=((("0", "0", "1"), "A1", 1),)),
        # four general lines meet in 6 nodes: d(f) = 9 - 6 = 3.  Points are
        # normalized with the last nonzero coordinate equal to 1.
        _extra("four-lines", "x*y*z*(x + y + z)", XYZ, 3, mu=6, singular=(
            (("0", "0", "1"), "A1", 1),
            (("0", "1", "0"), "A1", 1),
            (("1", "0", "0"), "A1", 1),
            (("0", "-1", "1"), "A1", 1),
            (("-1", "0", "1"), "A1", 1),
            (("-1", "1", "0"), "A1", 1),
        )),
    ),
    # The hypothesis-free route alone: the fiber oracle modulo two primes.
    "oracle": (
        BY_NAME["square-times-line"],
        BY_NAME["line-pair"],
        BY_NAME["square-sum-times-difference"],
        BY_NAME["sum-times-difference"],
        # reduction x*y*z is the Cremona triangle: d(f) = 1
        _extra("square-times-triangle", "x^2*y*z", XYZ, 1, oracle_only=True),
        # reduction is the conic with a tangent line: d(f) = 1
        _extra("square-times-conic", "x^2*(x*z - y^2)", XYZ, 1, oracle_only=True),
        # Cayley cubic surface, 4 A1 nodes: d(f) = 8 - 4 = 4
        _extra("cayley-cubic", "w*x*y + w*x*z + w*y*z + x*y*z", WXYZ, 4,
               oracle_only=True),
    ),
}


# Analyzed untimed before the first pass of a run: the first analyses in a
# process run up to twice as slow on the millisecond inputs (first-use
# caches, adaptive bytecode specialization).  Between them they reach every
# traced layer.
WARMUP = (BY_NAME["line-pair"], BY_NAME["cremona-triangle"])


@dataclass
class Outcome:
    """One input of one pass: when it started and its wall time (both in
    `time.perf_counter` seconds), verdict check and the checked result."""

    name: str
    start: float
    seconds: float
    ok: bool
    result: dict | None
    error: str | None


def run_input(entry: CatalogEntry, seed: int) -> Outcome:
    """Analyze one input and check its verdict.  A raised error is a failed
    verdict, not the end of the run."""
    start = time.perf_counter()
    try:
        result = run_entry(entry, seed=seed)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Outcome(entry.name, start, elapsed, False, None, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    error = "; ".join(result["mismatches"]) or None
    return Outcome(entry.name, start, elapsed, result["ok"], result, error)


def run_pass(entries, seed: int) -> tuple[float, list[Outcome]]:
    """One pass over all inputs: (wall seconds, one outcome per input)."""
    start = time.perf_counter()
    outcomes = [run_input(entry, seed) for entry in entries]
    return time.perf_counter() - start, outcomes


def warm_up(seed: int) -> None:
    """Run the warm-up inputs once; their verdicts are not the workload's."""
    for entry in WARMUP:
        run_input(entry, seed)
