"""End-to-end analysis of one homogeneous polynomial, and report types.

The pipeline checks the hypotheses with the exact gate
`polar.require_hypotheses`, computes the polar degree by all three methods,
assembles local singularity data (with user-declared weighted-homogeneous
structure), evaluates the bound checkers and produces a JSON-serializable
verdict bundle.

The singular points are enumerated once (`mu_summary`), and the formula and
tame values are read off that one certified frame: the certificate fixes
mu_on + mu_off = (d-1)^n, so they agree, and the fiber oracle, which shares
no kernel with the frame, is the independent vote.  A second frame (seed + 1)
is drawn only when the oracle disagrees, to break the tie, or when the value
is a COUNTEREXAMPLE; its mu(V) must match the first frame's, and the tame
value is its split.  `polar.consolidate` combines the three values.  When
the gate finds the Jacobian scheme empty, V is smooth, and both frames take
mu(V) = 0 from it (`hypersurface.frame_split`): each is still drawn and
certified, but builds no frame algebra.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import monodromy as mono
from .groebner import DEFAULT_CAPS, Caps
from .hypersurface import SingularityRecord, frame_split, mu_summary
from .parser import ParseError, parse_poly
from .poly import Poly, ProjectivePoint, _format_coeff
from .polar import (
    check_multiplicity_inequality,
    check_polar_degree_lower_bound,
    check_oracle_options,
    check_surface_criterion,
    conjecture_verdict,
    consolidate,
    polar_degree_fiber_oracle,
    require_hypotheses,
)


class InputError(Exception):
    """Malformed input: parse failure, bad flags, bad declarations."""


class InconsistencyError(Exception):
    """Internal disagreement between methods that should agree."""


@dataclass
class AnalysisOptions:
    seed: int = 1
    trials: int = 3
    declarations: list[dict] = field(default_factory=list)
    timings: bool = False
    caps: Caps = DEFAULT_CAPS


@dataclass
class AnalysisReport:
    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2)

    def to_text(self) -> str:
        d = self.data
        lines = [
            f"input           {d['input']}",
            f"variables       {', '.join(d['vars'])}",
            f"degree d        {d['d']}",
            f"ambient dim n   {d['n']}",
            f"reduced         {d['reduced']['verdict']}",
            f"isolated        {d['isolated']}",
            f"frame seed      {d['frame_seed']}",
        ]
        for sp in d["singular_points"]:
            label = sp.get("label") or "?"
            cp = sp.get("charpoly") or "undeclared"
            mu0 = sp.get("mu0")
            mu0_s = "?" if mu0 is None else str(mu0)
            lines.append(
                f"singular point  ({' : '.join(sp['point'])})  {label}  "
                f"mu={sp['mu']} mu0={mu0_s}  {cp}"
            )
        lines.append(f"enumeration     complete={d['enumeration_complete']}")
        lines.append(f"mu(V)           {d['mu_V']}")
        lines.append(f"mu0(V)          {d['mu0_V'] if d['mu0_V'] is not None else 'unknown'}")
        if d["delta_V"] is not None:
            lines.append(f"Delta_V         {d['delta_V']['factored']}")
        df = d["d_f"]
        lines.append(
            "d(f)            formula=%s oracle=%s tame=%s consolidated=%s"
            % (df["formula"], df["fiber_oracle"], df["tame_split"], df["consolidated"])
        )
        b = d["bounds"]["polar_degree_lower_bound"]
        if b["applicable"]:
            lines.append(
                f"lower bound     {b['lhs']} >= {b['rhs']}  holds={b['holds']}"
            )
        s = d["bounds"]["surface_mu0_criterion"]
        if s["applicable"]:
            lines.append(
                f"surface check   mu0={s['mu0']} < {s['bound']}  certified={s['certified']}"
            )
        m = d["bounds"]["eigenvalue_multiplicities"]
        if m["applicable"]:
            for row in m["rows"]:
                lines.append(
                    f"  eigenvalue order {row['k']}: mult_V={row['mult_V']} >= "
                    f"{row['required']}  holds={row['holds']}"
                )
        lines.append(f"conjecture      {d['conjecture_status']}")
        for note in d.get("notes", []):
            lines.append(f"note            {note}")
        if "timings" in d:
            width = max(map(len, d["timings"]))
            for k, v in d["timings"].items():
                lines.append(f"time {k:<{width}} {v:.3f}s")
        return "\n".join(lines)


def parse_declarations(raw: list[dict], nvars: int) -> dict[ProjectivePoint, dict]:
    """Validate user-supplied singularity declarations (points as rational
    strings plus optional weights / pure-power exponents / label) and derive
    each declared monodromy divisor.  Each point may be declared once, up to
    scaling."""
    out: dict[ProjectivePoint, dict] = {}
    for item in raw:
        if not isinstance(item, dict):
            raise InputError(f"singularity declaration {item!r} is not an object")
        if "point" not in item:
            raise InputError("singularity declaration lacks a point")
        try:
            coords = [Fraction(str(c)) for c in item["point"]]
            bp = item.get("bp_exponents")
            bp = tuple(operator.index(a) for a in bp) if bp else None
            weights = item.get("weights")
            weights = tuple(Fraction(str(w)) for w in weights) if weights else None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad singularity declaration {item!r}: {exc}") from exc
        if len(coords) != nvars:
            raise InputError(
                f"declared point {item['point']} has {len(coords)} coordinates, "
                f"expected {nvars}"
            )
        try:
            pt = ProjectivePoint(coords)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if pt in out:
            raise InputError(f"point {pt} is declared twice")
        if bp and weights:
            raise InputError("declare either weights or pure-power exponents, not both")
        try:
            delta = mono.bp_charpoly(bp) if bp else mono.wh_charpoly(weights) if weights else None
        except (ValueError, mono.NonIntegralResult) as exc:
            raise InputError(f"bad singularity declaration at {pt}: {exc}") from exc
        out[pt] = dict(label=item.get("label"), delta=delta)
    return out


def _build_records(local_mu, declarations) -> list[SingularityRecord]:
    unmatched = set(declarations) - set(local_mu)
    if unmatched:
        raise InputError(
            "declared points are not rational singular points: "
            + ", ".join(str(p) for p in sorted(unmatched, key=lambda q: q.coords))
        )
    records = []
    for pt, mu in local_mu.items():
        decl = declarations.get(pt, {})
        try:
            rec = SingularityRecord(pt, mu, decl.get("label"), decl.get("delta"))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        records.append(rec)
    return records


def analyze_polynomial(text: str, vars, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Full verdict bundle for one input polynomial, given as text in `vars`."""
    try:
        f = parse_poly(text, vars)
    except ParseError as exc:
        raise InputError(str(exc)) from exc
    return analyze_parsed(f, text, options)


def analyze_parsed(f: Poly, text: str, options: AnalysisOptions | None = None) -> AnalysisReport:
    """`analyze_polynomial` for a polynomial already parsed from `text`,
    which the report shows as its "input"."""
    options = options or AnalysisOptions()
    check_oracle_options(options.trials)
    timings: dict[str, float] = {}
    t0 = time.monotonic()
    declarations = parse_declarations(options.declarations, len(f.vars))
    d, smooth = require_hypotheses(f, options.caps)
    n = len(f.vars) - 1
    timings["hypotheses"] = time.monotonic() - t0

    notes: list[str] = []
    t1 = time.monotonic()
    summary = mu_summary(f, options.seed, options.caps, smooth=smooth)
    # the declarations are checked against the points before any further work
    records = _build_records(summary.local_mu, declarations)
    formula_value = (d - 1) ** n - summary.mu_on
    tame_value = summary.mu_off
    timings["frames"] = time.monotonic() - t1

    t2 = time.monotonic()
    oracle = polar_degree_fiber_oracle(f, options.trials, options.seed, options.caps)
    if oracle.details.get("discrepancy"):
        notes.append(f"oracle trials disagreed: {oracle.details['values']}")
    timings["oracle"] = time.monotonic() - t2

    claim = conjecture_verdict(d, n, formula_value)
    if oracle.value != formula_value or claim == "COUNTEREXAMPLE":
        # a tie to break, or a counterexample claim: the tame vote comes from
        # a second frame, whose mu(V) must match the first
        t4 = time.monotonic()
        _, mu_on_alt, tame_value = frame_split(f, options.seed + 1, options.caps, smooth=smooth)
        if summary.mu_on != mu_on_alt:
            raise InconsistencyError(
                f"mu(V) differs between frames: {summary.mu_on} vs {mu_on_alt}"
            )
        timings["frames"] += time.monotonic() - t4

    values = {
        "formula": formula_value,
        "fiber_oracle": oracle.value,
        "tame_split": tame_value,
    }
    consolidated, unanimous = consolidate(list(values.values()))
    if consolidated is None:
        raise InconsistencyError(f"all three methods disagree: {values}")
    if not unanimous:
        notes.append(f"methods disagree: {values}")

    t3 = time.monotonic()
    if not summary.complete:
        notes.append(
            "rational enumeration incomplete: irrational singular points exist; "
            "per-point monodromy data unavailable for them"
        )
    all_declared = all(r.delta is not None for r in records)
    delta_v = None
    mu0_v = None
    if summary.complete and all_declared:
        delta_v = mono.charpoly_product([r.delta for r in records])
        mu0_v = mono.mu0_from_charpoly(delta_v)
    timings["singularities"] = time.monotonic() - t3

    bounds: dict = {}
    if d > 2 and n >= 3 and mu0_v is not None:
        bounds["polar_degree_lower_bound"] = {
            "applicable": True,
            **check_polar_degree_lower_bound(d, n, consolidated, mu0_v),
        }
    else:
        bounds["polar_degree_lower_bound"] = {"applicable": False}
    if n == 3 and mu0_v is not None:
        bounds["surface_mu0_criterion"] = {
            "applicable": True,
            **check_surface_criterion(d, mu0_v),
        }
    else:
        bounds["surface_mu0_criterion"] = {"applicable": False}
    if consolidated == 1 and delta_v is not None and n >= 2:
        bounds["eigenvalue_multiplicities"] = check_multiplicity_inequality(
            d, n, delta_v, consolidated
        )
    else:
        bounds["eigenvalue_multiplicities"] = {"applicable": False, "rows": []}

    status = conjecture_verdict(d, n, consolidated)
    if status == "COUNTEREXAMPLE" and not unanimous:
        # a counterexample claim needs all three methods, not a majority
        status = "undetermined"
        notes.append("d(f) = 1 by majority only; counterexample claim withheld")
    if status == "COUNTEREXAMPLE":
        notes.append("COUNTEREXAMPLE verified with rational arithmetic; review manually")

    data = {
        "input": text,
        "vars": list(f.vars),
        "d": d,
        "n": n,
        "reduced": {
            "verdict": "reduced",
            "method": "exact: a square factor makes the singular locus "
            "positive-dimensional (n >= 2) or nonempty (n = 1)",
        },
        "isolated": True,
        "frame_seed": summary.model.seed,
        "singular_points": [
            {
                "point": [_format_coeff(c) for c in r.point.coords],
                "mu": r.mu,
                "mu0": r.mu0,
                "label": r.label,
                "charpoly": mono.factored_string(r.delta) if r.delta else None,
                "charpoly_exponents": mono.to_json_map(r.delta) if r.delta else None,
            }
            for r in records
        ],
        "enumeration_complete": summary.complete,
        "mu_V": summary.mu_on,
        "mu0_V": mu0_v,
        "delta_V": {
            "factored": mono.factored_string(delta_v),
            "exponents": mono.to_json_map(delta_v),
        }
        if delta_v is not None
        else None,
        "d_f": {**values, "consolidated": consolidated, "unanimous": unanimous},
        "bounds": bounds,
        "conjecture_status": status,
        "notes": notes,
    }
    if options.timings:
        timings["total"] = time.monotonic() - t0
        data["timings"] = timings
    return AnalysisReport(data)
