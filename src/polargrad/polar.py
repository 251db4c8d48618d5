"""Degree of the gradient map by three routes, and the bound checkers.

* `polar_degree_formula`: (d-1)^n minus the total Milnor number of V(f).
* `polar_degree_tame`: the critical multiplicity of a certified affine model
  supported off the zero fiber.
* `polar_degree_fiber_oracle`: projective degree of the generic-fiber ideal
  built from the 2x2 minors of (grad f | u), saturated by one partial f_j
  with u_j != 0 to remove the base locus grad f = 0.  This route needs no
  reducedness or isolatedness hypotheses and is the general fallback; the
  other two need both, which `require_hypotheses` alone decides, exactly.

The oracle can run its Groebner steps modulo two fixed large primes; a value
is only reported from the modular path when both primes agree, and any
conjecture-counterexample claim is re-verified over the rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .groebner import (
    DEFAULT_CAPS,
    Caps,
    Ideal,
    # unused; perfbench's test_install_rebinds_every_namespace_and_restores rebinds it
    intersect,
    projective_dim,
    saturate,
    zero_dim_degree_projective,
)
from .hypersurface import frame_split, jacobian_ideal, mu_summary
from .monodromy import (
    CycDivisor,
    fermat_mult_reference,
    mult_at_order,
    primitive_betti,
)
from .poly import (
    DomainMismatch,
    NotHomogeneous,
    Poly,
    ZeroPolynomial,
    gradient,
    homogeneous_degree,
    to_prime_field,
)
from .rng import SplitMix64

ORACLE_PRIMES = (2147483629, 2147483587)


class PolarError(Exception):
    pass


class HypothesisError(PolarError):
    pass


class PositiveDimensionalFiber(PolarError):
    pass


class OracleInconsistent(PolarError):
    pass


class MethodsDisagree(PolarError):
    pass


@dataclass
class PolarDegreeResult:
    method: str
    value: int
    seed: int
    details: dict = field(default_factory=dict)


def require_hypotheses(f: Poly, caps: Caps = DEFAULT_CAPS) -> int:
    """Degree of f after checking that it is a reduced form in two or more
    variables with isolated singularities.  Both are read off the projective
    dimension pd of the Jacobian scheme: for n >= 2 a square factor g^2 makes
    V(g) (dimension n - 1) singular, so pd <= 0 proves f reduced; for n = 1,
    f is reduced exactly when pd = -1."""
    try:
        d = homogeneous_degree(f)
    except (NotHomogeneous, ZeroPolynomial) as exc:
        raise HypothesisError(str(exc)) from exc
    n = len(f.vars) - 1
    if n < 1:
        raise HypothesisError("need at least two variables")
    pd = projective_dim(jacobian_ideal(f, caps))
    if pd > 0:
        raise HypothesisError(f"singular locus has dimension {pd}")
    if n == 1 and pd == 0:
        raise HypothesisError("input polynomial is not reduced")
    return d


def polar_degree_formula(f: Poly, seed: int = 1, caps: Caps = DEFAULT_CAPS) -> PolarDegreeResult:
    """(d-1)^n - mu(V(f)), with mu computed through a certified frame and
    cross-checked against per-point local Milnor numbers when possible."""
    d = require_hypotheses(f, caps)
    n = len(f.vars) - 1
    summary = mu_summary(f, seed, caps)
    value = (d - 1) ** n - summary.mu_on
    if value < 0:
        raise PolarError(f"negative degree {(d-1)**n} - {summary.mu_on}")
    return PolarDegreeResult(
        "formula",
        value,
        seed,
        {
            "mu_V": summary.mu_on,
            "frame_seed": summary.model.seed,
            "frame_draws": summary.model.draws,
            "enumeration_complete": summary.complete,
        },
    )


def polar_degree_tame(f: Poly, seed: int = 1, caps: Caps = DEFAULT_CAPS) -> PolarDegreeResult:
    """Critical multiplicity of the affine model away from the zero fiber."""
    require_hypotheses(f, caps)
    model, mu_on, mu_off = frame_split(f, seed, caps)
    return PolarDegreeResult(
        "tame_split",
        mu_off,
        seed,
        {
            "mu_total": mu_on + mu_off,
            "mu_on": mu_on,
            "frame_seed": model.seed,
            "frame_draws": model.draws,
        },
    )


# ---------------------------------------------------------------- the oracle


def _minor_gens(grads: list[Poly], u: tuple[int, ...]) -> list[Poly]:
    gens = []
    nv = len(grads)
    for i in range(nv):
        for j in range(i + 1, nv):
            g = grads[i].scale(u[j]) - grads[j].scale(u[i])
            if not g.is_zero():
                gens.append(g)
    return gens


class _OracleContext:
    """Per-domain gradient data shared across trials: the partials, the caps
    of every fiber ideal and whether the base locus grad f = 0 is empty.
    With an empty base locus the saturation is skipped: removing the
    irrelevant component never changes the projective dimension or degree of
    the fiber scheme."""

    def __init__(self, grads: list[Poly], caps: Caps = DEFAULT_CAPS):
        self.grads = grads
        self.caps = caps
        self.base_locus_empty = projective_dim(Ideal(grads, caps=caps)) == -1


def _fiber_degree(ctx: _OracleContext, u: tuple[int, ...]):
    """Fiber count and saturation exponent over one coefficient domain.

    One saturation by a partial f_j with f_j != 0 and u_j != 0 in this domain
    gives I : (grad f)^inf with no hypothesis on f: off the base locus,
    grad f = c*u with c != 0, so f_j does not vanish there, and the base
    locus lies in V(f_j).  Returns (count, exponent); the count is 0 for an
    empty fiber and the exponent None when nothing was saturated.  Raises
    PositiveDimensionalFiber for a degenerate target."""
    gens = _minor_gens(ctx.grads, u)
    if not gens:
        raise PositiveDimensionalFiber("target is proportional to the gradient")
    fiber = Ideal(gens, caps=ctx.caps)
    exponent = None
    if not ctx.base_locus_empty:
        # u_j * f_j is zero exactly when f_j = 0 or u_j = 0 in this domain
        j = next((j for j, g in enumerate(ctx.grads) if not g.scale(u[j]).is_zero()), None)
        if j is None:  # the minors contain u_k * f_i for all i: I holds grad f
            return 0, None
        fiber, exponent = saturate(fiber, ctx.grads[j])
    if fiber.is_unit():
        return 0, exponent
    pd = projective_dim(fiber)
    if pd == -1:
        return 0, exponent
    if pd != 0:
        raise PositiveDimensionalFiber(f"saturated fiber has dimension {pd}")
    return zero_dim_degree_projective(fiber), exponent


def _oracle_value(contexts: dict, grads: list[Poly], u: tuple[int, ...], modp: str, caps: Caps):
    def context(key) -> _OracleContext:
        if key not in contexts:
            if key == "qq":
                contexts[key] = _OracleContext(grads, caps)
            else:
                contexts[key] = _OracleContext([to_prime_field(g, key) for g in grads], caps)
        return contexts[key]

    path, result = "rational", None
    if modp == "dual":
        path = "rational (prime fallback)"
        try:
            results = [_fiber_degree(context(p), u) for p in ORACLE_PRIMES]
            if results[0][0] == results[1][0]:
                path, result = "dual-prime", results[0]
        except DomainMismatch:
            pass
    if result is None:
        result = _fiber_degree(context("qq"), u)
    value, exponent = result
    return value, {"u": list(u), "path": path, "saturation_exponent": exponent, "degree": value}


def check_oracle_options(trials: int, modp: str) -> None:
    """Reject oracle settings before any Groebner work is done."""
    if modp not in ("dual", "off"):
        raise ValueError("modp must be 'dual' or 'off'")
    if trials < 1:
        raise ValueError(f"need at least one oracle trial, got {trials}")


def polar_degree_fiber_oracle(
    f: Poly, trials: int = 3, seed: int = 1, modp: str = "dual", caps: Caps = DEFAULT_CAPS
) -> PolarDegreeResult:
    """Count the points of the fiber of the gradient map over random rational
    targets.  Trials must agree; on a mismatch more targets are drawn and the
    smallest value confirmed by three trials is reported, with the
    discrepancy logged in the details."""
    d = homogeneous_degree(f)
    if d < 1:
        raise HypothesisError("the gradient map needs a non-constant polynomial")
    check_oracle_options(trials, modp)
    grads = gradient(f)
    contexts: dict = {}
    rng = SplitMix64(seed * 6364136223846793005 + 0xDA3E39CB94B95BDB)
    nv = len(f.vars)
    values: list[int] = []
    infos: list[dict] = []
    budget = max(4 * trials, trials + 9)
    drawn = 0
    while True:
        if values and len(set(values)) == 1 and len(values) >= trials:
            break
        if len(set(values)) > 1 and max(Counter(values).values()) >= 3:
            break
        if drawn >= budget:
            if values and len(set(values)) == 1:
                break
            raise OracleInconsistent(
                f"no stable fiber count within {budget} targets: {values}"
            )
        result = None
        for _ in range(2):  # one internal retry per trial on a degenerate target
            u = rng.nonzero_vector(nv, -100, 100)
            drawn += 1
            try:
                result = _oracle_value(contexts, grads, u, modp, caps)
                break
            except PositiveDimensionalFiber:
                continue
        if result is None:
            raise PositiveDimensionalFiber(
                "two consecutive degenerate targets; rerun with a new seed"
            )
        values.append(result[0])
        infos.append(result[1])
    if len(set(values)) == 1:
        value = values[0]
        discrepancy = False
    else:
        counts = Counter(values)
        agreeing = sorted(v for v, c in counts.items() if c >= 3)
        value = agreeing[0]
        discrepancy = True
    return PolarDegreeResult(
        "fiber_oracle",
        value,
        seed,
        {"values": values, "trials": infos, "discrepancy": discrepancy, "modp": modp},
    )


# ------------------------------------------------------------- consolidation


def consolidate(values: list[int]) -> tuple[int | None, bool]:
    """The one consolidation rule for d(f) values: (consolidated value,
    unanimous flag); the value is present when at least two values agree,
    or when there is a single value."""
    top, freq = Counter(values).most_common(1)[0]
    if freq == len(values):
        return top, True
    if freq >= 2:
        return top, False
    return None, False


def is_homaloidal(
    f: Poly, seed: int = 1, trials: int = 3, modp: str = "dual", caps: Caps = DEFAULT_CAPS
) -> tuple[bool, list[PolarDegreeResult]]:
    """Whether the gradient map is birational, with the agreeing evidence."""
    results = [
        polar_degree_formula(f, seed, caps),
        polar_degree_fiber_oracle(f, trials, seed, modp, caps),
        polar_degree_tame(f, seed + 1, caps),
    ]
    value, unanimous = consolidate([r.value for r in results])
    if not unanimous:
        raise MethodsDisagree(f"methods disagree: {[r.value for r in results]}")
    return value == 1, results


# ------------------------------------------------------------ bound checkers


def check_polar_degree_lower_bound(d: int, n: int, d_f: int, mu0: int) -> dict:
    """d(f) against the primitive Betti number of the dimension-(n-2) smooth
    reference hypersurface minus mu0(V)."""
    if d <= 2 or n < 3:
        raise ValueError("the lower bound needs d > 2 and n >= 3")
    rhs = primitive_betti(d, n - 2) - mu0
    return {"lhs": d_f, "rhs": rhs, "holds": d_f >= rhs}


def check_surface_criterion(d: int, mu0: int) -> dict:
    """Surface case: whether mu0(V) < (d-1)(d-2) - 1, which certifies that the
    gradient map of the surface cannot be birational."""
    bound = (d - 1) * (d - 2) - 1
    return {"mu0": mu0, "bound": bound, "certified": mu0 < bound}


def check_multiplicity_inequality(
    d: int, n: int, delta_v: CycDivisor, d_f: int
) -> dict:
    """For a homaloidal f, every d-th root of unity must satisfy
    mult_V >= reference multiplicity - 1; rows are grouped by the order k of
    the eigenvalue since both sides depend only on it."""
    if d_f != 1:
        return {"applicable": False, "rows": []}
    rows = []
    for k in range(1, d + 1):
        if d % k:
            continue
        mult_v = mult_at_order(delta_v, k)
        ref = fermat_mult_reference(d, n, k)
        rows.append(
            {
                "k": k,
                "mult_V": mult_v,
                "mult_reference": ref,
                "required": ref - 1,
                "holds": mult_v >= ref - 1,
            }
        )
    return {"applicable": True, "rows": rows}


def conjecture_verdict(d: int, n: int, d_f: int | None) -> str:
    """Status of the d(f) != 1 expectation in the range d > 2, n > 2, for an
    f that has passed `require_hypotheses` (reduced, isolated singularities)."""
    if d <= 2 or n <= 2:
        return "out_of_hypothesis"
    if d_f is None:
        return "undetermined"
    return "consistent" if d_f != 1 else "COUNTEREXAMPLE"
