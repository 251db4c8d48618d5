"""Built-in example catalog with expected invariants.

Every number stored here was computed and cross-checked with this toolkit's
own routines (singular-locus enumeration, local Milnor numbers, the three
polar-degree methods), so the catalog doubles as a regression suite.  The two
cubic-surface equations were found by a small search over structured cubic
families and certified by the local analysis; provenance is recorded per
entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import DEFAULT_CAPS, Caps
from .parser import parse_poly
from .polar import polar_degree_fiber_oracle
from .report import AnalysisOptions, analyze_polynomial


@dataclass(frozen=True)
class CatalogSingularity:
    point: tuple[str, ...]
    label: str
    mu: int
    bp_exponents: tuple[int, ...] | None = None
    weights: tuple[str, ...] | None = None

    def declaration(self) -> dict:
        decl: dict = {"point": list(self.point), "label": self.label}
        if self.bp_exponents:
            decl["bp_exponents"] = list(self.bp_exponents)
        if self.weights:
            decl["weights"] = list(self.weights)
        return decl


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    text: str
    vars: tuple[str, ...]
    d_f: int
    note: str
    mu: int | None = None
    mu0: int | None = None
    status: str | None = None
    singularities: tuple[CatalogSingularity, ...] = ()
    oracle_only: bool = False


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="cremona-triangle",
        text="x*y*z",
        vars=("x", "y", "z"),
        d_f=1,
        mu=3,
        mu0=3,
        status="out_of_hypothesis",
        singularities=(
            CatalogSingularity(("1", "0", "0"), "A1", 1, bp_exponents=(2, 2)),
            CatalogSingularity(("0", "1", "0"), "A1", 1, bp_exponents=(2, 2)),
            CatalogSingularity(("0", "0", "1"), "A1", 1, bp_exponents=(2, 2)),
        ),
        note="coordinate triangle; the gradient map is the classical plane "
        "Cremona involution",
    ),
    CatalogEntry(
        name="conic-tangent",
        text="x*(x*z - y^2)",
        vars=("x", "y", "z"),
        d_f=1,
        mu=3,
        mu0=1,
        status="out_of_hypothesis",
        singularities=(
            CatalogSingularity(("0", "0", "1"), "A3", 3, bp_exponents=(2, 4)),
        ),
        note="smooth conic with a tangent line; one tacnode",
    ),
    CatalogEntry(
        name="smooth-quadric-p2",
        text="x^2 + y^2 + z^2",
        vars=("x", "y", "z"),
        d_f=1,
        mu=0,
        mu0=0,
        status="out_of_hypothesis",
        note="smooth plane conic; the gradient map is linear",
    ),
    CatalogEntry(
        name="smooth-quadric-p3",
        text="w^2 + x^2 + y^2 + z^2",
        vars=("w", "x", "y", "z"),
        d_f=1,
        mu=0,
        mu0=0,
        status="out_of_hypothesis",
        note="smooth quadric surface; the gradient map is linear",
    ),
    CatalogEntry(
        name="fermat-cubic-p2",
        text="x^3 + y^3 + z^3",
        vars=("x", "y", "z"),
        d_f=4,
        mu=0,
        mu0=0,
        status="out_of_hypothesis",
        note="smooth plane cubic: d(f) = (d-1)^n = 4",
    ),
    CatalogEntry(
        name="fermat-cubic-p3",
        text="w^3 + x^3 + y^3 + z^3",
        vars=("w", "x", "y", "z"),
        d_f=8,
        mu=0,
        mu0=0,
        status="consistent",
        note="smooth cubic surface: d(f) = (d-1)^n = 8",
    ),
    CatalogEntry(
        name="e6-cubic",
        text="x^2*w + x*z^2 + y^3",
        vars=("w", "x", "y", "z"),
        d_f=2,
        mu=6,
        mu0=0,
        status="consistent",
        singularities=(
            CatalogSingularity(("1", "0", "0", "0"), "E6", 6, bp_exponents=(2, 3, 4)),
        ),
        note="cubic surface with one E6 point, found by a structured search "
        "and certified here: the chart germ x^2 + x*z^2 + y^3 has mu = 6 and "
        "is equivalent to the pure-power form with exponents (2, 3, 4)",
    ),
    CatalogEntry(
        name="a1a5-cubic",
        text="w*x*z - w*y^2 + z^3",
        vars=("w", "x", "y", "z"),
        d_f=2,
        mu=6,
        mu0=0,
        status="consistent",
        singularities=(
            CatalogSingularity(("0", "1", "0", "0"), "A5", 5, bp_exponents=(2, 6, 2)),
            CatalogSingularity(("1", "0", "0", "0"), "A1", 1, bp_exponents=(2, 2, 2)),
        ),
        note="cubic surface with A5 + A1, found by a structured search and "
        "certified here: local Milnor numbers 5 and 1 at the two rational "
        "singular points",
    ),
    CatalogEntry(
        name="five-node-quartic",
        text="y*(x*z - y^2)*(x - z)",
        vars=("x", "y", "z"),
        d_f=4,
        mu=5,
        mu0=5,
        status="out_of_hypothesis",
        singularities=(
            CatalogSingularity(("1", "0", "0"), "A1", 1, bp_exponents=(2, 2)),
            CatalogSingularity(("0", "0", "1"), "A1", 1, bp_exponents=(2, 2)),
            CatalogSingularity(("1", "1", "1"), "A1", 1, bp_exponents=(2, 2)),
            CatalogSingularity(("1", "-1", "1"), "A1", 1, bp_exponents=(2, 2)),
            CatalogSingularity(("1", "0", "1"), "A1", 1, bp_exponents=(2, 2)),
        ),
        note="conic plus two transversal lines: a nodal quartic with five "
        "rational nodes, d(f) = 9 - 5 = 4",
    ),
    # oracle-only entries: non-reduced inputs and their reductions, used to
    # confirm that the fiber oracle sees only the reduced polynomial
    CatalogEntry(
        name="square-times-line",
        text="x^2*y",
        vars=("x", "y"),
        d_f=1,
        oracle_only=True,
        note="non-reduced binary cubic; oracle value matches line-pair",
    ),
    CatalogEntry(
        name="line-pair",
        text="x*y",
        vars=("x", "y"),
        d_f=1,
        oracle_only=True,
        note="reduction of square-times-line",
    ),
    CatalogEntry(
        name="square-sum-times-difference",
        text="(x+y)^2*(x-y)",
        vars=("x", "y"),
        d_f=1,
        oracle_only=True,
        note="non-reduced binary cubic; oracle value matches sum-times-difference",
    ),
    CatalogEntry(
        name="sum-times-difference",
        text="(x+y)*(x-y)",
        vars=("x", "y"),
        d_f=1,
        oracle_only=True,
        note="reduction of square-sum-times-difference",
    ),
)

BY_NAME = {entry.name: entry for entry in CATALOG}


def run_entry(
    entry: CatalogEntry, seed: int = 1, trials: int = 3, caps: Caps = DEFAULT_CAPS
) -> dict:
    """Analyze one entry and diff the result against its expected fields."""
    mismatches: list[str] = []
    if entry.oracle_only:
        f = parse_poly(entry.text, entry.vars)
        result = polar_degree_fiber_oracle(f, trials=trials, seed=seed, caps=caps)
        if result.value != entry.d_f:
            mismatches.append(f"d_f oracle: got {result.value}, expected {entry.d_f}")
        return {
            "name": entry.name,
            "ok": not mismatches,
            "mismatches": mismatches,
            "d_f": result.value,
        }
    options = AnalysisOptions(
        seed=seed,
        trials=trials,
        declarations=[s.declaration() for s in entry.singularities],
        caps=caps,
    )
    report = analyze_polynomial(entry.text, entry.vars, options).data
    df = report["d_f"]
    for method in ("formula", "fiber_oracle", "tame_split", "consolidated"):
        if df[method] != entry.d_f:
            mismatches.append(f"d_f {method}: got {df[method]}, expected {entry.d_f}")
    if not df["unanimous"]:
        mismatches.append("methods not unanimous")
    if entry.mu is not None and report["mu_V"] != entry.mu:
        mismatches.append(f"mu_V: got {report['mu_V']}, expected {entry.mu}")
    if entry.mu0 is not None and report["mu0_V"] != entry.mu0:
        mismatches.append(f"mu0_V: got {report['mu0_V']}, expected {entry.mu0}")
    if entry.status is not None and report["conjecture_status"] != entry.status:
        mismatches.append(
            f"status: got {report['conjecture_status']}, expected {entry.status}"
        )
    expected_mu = {s.point: s.mu for s in entry.singularities}
    got_points = {tuple(sp["point"]): sp["mu"] for sp in report["singular_points"]}
    for point, mu in expected_mu.items():
        if point not in got_points:
            mismatches.append(f"singular point {point} not found")
        elif got_points[point] != mu:
            mismatches.append(
                f"mu at {point}: got {got_points[point]}, expected {mu}"
            )
    if len(got_points) != len(expected_mu):
        mismatches.append(
            f"singular point count: got {len(got_points)}, expected {len(expected_mu)}"
        )
    return {
        "name": entry.name,
        "ok": not mismatches,
        "mismatches": mismatches,
        "report": report,
    }
