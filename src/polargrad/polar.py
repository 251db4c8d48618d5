"""Degree of the gradient map by three routes, and the bound checkers.

* `polar_degree_formula`: (d-1)^n minus the total Milnor number of V(f).
* `polar_degree_tame`: the critical multiplicity of a certified affine model
  supported off the zero fiber.
* `polar_degree_fiber_oracle`: the quotient dimension of the affine cone
  ideal (f_i - u_i) over a random target u, divided by d - 1: each point of
  the fiber over [u] has d - 1 affine lifts solving grad f = u, and the base
  locus grad f = 0 has none, so nothing is saturated.  This route needs no
  reducedness or isolatedness hypotheses and is the general fallback; the
  other two need both, which `require_hypotheses` alone decides, exactly.
  The gate also says whether V(f) is smooth (an empty Jacobian scheme);
  the formula and tame routes then take mu(V) = 0 from it and build no
  frame algebra beyond the frame's certificate (`frame_split`).
  It shares no kernel with them (no frame, no stable image); `analyze`
  reads the formula and tame values off one certified frame, so the oracle
  is its independent vote.  grad f is packed once per call
  (`_packed_gradient`), and each target adds one constant term to each
  partial and enters Buchberger's pair loop directly, with no `Poly` or
  `Ideal` built; the count is read off the run's staircase.
  The targets share a pair schedule: the pair loop's choices read only the
  intake's leads and each remainder's lead or zero, so a later target
  follows the schedule of the last one run in full, reducing every pair
  itself and checking each lead; on the first difference it runs in full
  and its schedule is kept.  A followed run is the one the full loop would
  build, with its minimal leads, so a followed target's count is its
  schedule's, listed once by the full run.  Every count is exact: the cone
  bases are over the rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .groebner import (
    DEFAULT_CAPS,
    GREVLEX,
    Caps,
    NotZeroDimensional,
    _cleared,
    _pair_loop,
    _run_packing,
    # unused; perfbench's test_install_rebinds_every_namespace_and_restores rebinds it
    intersect,
    projective_dim,
    run_quotient_dim,
)
from .hypersurface import frame_split, jacobian_ideal, mu_summary
from .monodromy import (
    CycDivisor,
    fermat_mult_reference,
    mult_at_order,
    primitive_betti,
)
from .poly import NotHomogeneous, Poly, ZeroPolynomial, gradient, homogeneous_degree
from .rng import SplitMix64


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


def require_hypotheses(f: Poly, caps: Caps = DEFAULT_CAPS) -> tuple[int, bool]:
    """(d, smooth): the degree of f after checking that it is a reduced
    non-constant form in two or more variables with isolated singularities,
    and whether V(f) is smooth.  Reducedness, isolatedness and smoothness are
    read off the projective dimension pd of the Jacobian scheme: for n >= 2
    a square factor g^2 makes V(g) (dimension n - 1) singular, so pd <= 0
    proves f reduced; for n = 1, f is reduced exactly when pd = -1; and V(f)
    is smooth exactly when pd = -1, which `frame_split` takes as mu(V) = 0."""
    try:
        d = homogeneous_degree(f)
    except (NotHomogeneous, ZeroPolynomial) as exc:
        raise HypothesisError(str(exc)) from exc
    if d < 1:
        raise HypothesisError("the gradient map needs a non-constant polynomial")
    n = len(f.vars) - 1
    if n < 1:
        raise HypothesisError("need at least two variables")
    pd = projective_dim(jacobian_ideal(f, caps))
    if pd > 0:
        raise HypothesisError(f"singular locus has dimension {pd}")
    if n == 1 and pd == 0:
        raise HypothesisError("input polynomial is not reduced")
    return d, pd == -1


def polar_degree_formula(f: Poly, seed: int = 1, caps: Caps = DEFAULT_CAPS) -> PolarDegreeResult:
    """(d-1)^n - mu(V(f)), with mu computed through a certified frame and
    cross-checked against per-point local Milnor numbers when possible."""
    d, smooth = require_hypotheses(f, caps)
    n = len(f.vars) - 1
    summary = mu_summary(f, seed, caps, smooth=smooth)
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
    _, smooth = require_hypotheses(f, caps)
    model, mu_on, mu_off = frame_split(f, seed, caps, smooth=smooth)
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


def _packed_gradient(f: Poly, d: int, caps: Caps = DEFAULT_CAPS) -> tuple:
    """grad f packed once for every cone target: (f's variables, one GREVLEX
    packing wide enough for max(cap, d - 1) (`_run_packing`), and
    per partial f_i the pair (L_i, the packed integer terms of L_i * f_i in
    descending order), L_i clearing its denominators (`_cleared`))."""
    packing = _run_packing(GREVLEX, len(f.vars), d - 1, caps)
    pack = packing.pack
    partials = []
    for g in gradient(f):
        L, terms = _cleared(g)
        partials.append((L, sorted(((pack(m), c) for m, c in terms.items()), reverse=True)))
    return f.vars, packing, partials


def _cone_generators(grad: tuple, u: tuple[int, ...]) -> list:
    """The pair loop's generators of the cone ideal (f_i - u_i), from grad f
    packed by `_packed_gradient`: the terms of L_i * f_i and one constant
    term -L_i * u_i, last, as 1 packs to 0, below every other monomial."""
    gens = []
    for (L, terms), c in zip(grad[2], u):
        c = -L * c
        if c:
            terms = [*terms, (0, c)]
        if terms:
            gens.append(terms)
    return gens


def _fiber_degree(
    grad: tuple, d: int, u: tuple[int, ...], caps: Caps = DEFAULT_CAPS, follow=None
) -> tuple[int, tuple | None]:
    """(fiber count over [u] of grad f, packed by `_packed_gradient`, from
    one zero-dimensional basis and no saturation; (schedule, quotient
    dimension) of the full pair loop whose staircase gave it: this target's
    own, or `follow` when the loop followed it or none ran).

    A fiber point is [x] with grad f(x) = c*u, c != 0; since grad f has
    degree d - 1, exactly d - 1 rescalings of x solve grad f(x) = u (etale),
    and points of the base locus grad f = 0 never do.  So the affine cone ideal (f_i - u_i) has
    quotient dimension d - 1 times the count, with multiplicity; a unit
    ideal is an empty fiber.  Its generators (`_cone_generators`) go
    straight into the pair loop (`_pair_loop`), which first follows the
    schedule of `follow`, another target's, when given, and runs in full
    when that returns None.  A followed run has checked every intake and
    remainder lead against the schedule, so its minimal leads, staircase
    and quotient dimension are those of the full run: its count is read off
    `follow`, computed once per schedule, and no staircase is listed.
    Raises PositiveDimensionalFiber for a degenerate target and
    OracleInconsistent when d - 1 does not divide the quotient dimension."""
    if d == 1:  # grad f is constant: the generic fiber is empty
        return 0, follow
    vars, packing, _ = grad
    gens = _cone_generators(grad, u)
    if follow is None or _pair_loop(vars, packing, caps, gens, follow[0]) is None:
        run = _pair_loop(vars, packing, caps, gens)
        try:
            follow = run.schedule, run_quotient_dim(run)
        except NotZeroDimensional as exc:
            raise PositiveDimensionalFiber(f"fiber over {list(u)} is not finite") from exc
    count = follow[1]
    degree, rest = divmod(count, d - 1)
    if rest:
        raise OracleInconsistent(f"{count} cone solutions is not a multiple of d - 1 = {d - 1}")
    return degree, follow


def check_oracle_options(trials: int) -> None:
    """Reject oracle settings before any Groebner work is done."""
    if trials < 1:
        raise ValueError(f"need at least one oracle trial, got {trials}")


def polar_degree_fiber_oracle(
    f: Poly, trials: int = 3, seed: int = 1, caps: Caps = DEFAULT_CAPS
) -> PolarDegreeResult:
    """Count the points of the fiber of the gradient map over random rational
    targets u, each as the quotient dimension of the cone ideal (f_i - u_i)
    over d - 1 (see `_fiber_degree`).  A target with a positive-dimensional
    fiber is redrawn once.  Trials must agree; on a mismatch more targets are
    drawn and the smallest value confirmed by three trials is reported, with
    the discrepancy logged in the details."""
    d = homogeneous_degree(f)
    if d < 1:
        raise HypothesisError("the gradient map needs a non-constant polynomial")
    check_oracle_options(trials)
    grad = _packed_gradient(f, d, caps)
    rng = SplitMix64(seed * 6364136223846793005 + 0xDA3E39CB94B95BDB)
    nv = len(f.vars)
    values: list[int] = []
    infos: list[dict] = []
    budget = max(4 * trials, trials + 9)
    drawn = 0
    full = None  # (schedule, count) of the last target whose pair loop ran in full
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
        for _ in range(2):  # one internal retry per trial on a degenerate target
            u = rng.nonzero_vector(nv, -100, 100)
            drawn += 1
            try:
                degree, full = _fiber_degree(grad, d, u, caps, full)
                break
            except PositiveDimensionalFiber:
                continue
        else:
            raise PositiveDimensionalFiber(
                "two consecutive degenerate targets; rerun with a new seed"
            )
        values.append(degree)
        infos.append({"u": list(u), "path": "rational", "degree": degree})
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
        {"values": values, "trials": infos, "discrepancy": discrepancy},
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
    f: Poly, seed: int = 1, trials: int = 3, caps: Caps = DEFAULT_CAPS
) -> tuple[bool, list[PolarDegreeResult]]:
    """Whether the gradient map is birational, with the agreeing evidence."""
    results = [
        polar_degree_formula(f, seed, caps),
        polar_degree_fiber_oracle(f, trials, seed, caps),
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
