"""Groebner-basis engine: term orders, Buchberger, elimination, quotients,
saturation, staircase invariants (dimension, degree, quotient dimension),
and the algebra of a zero-dimensional quotient over QQ with its
multiplication matrices.

Everything is deterministic: the normal pair-selection strategy, sorted
generator intake and final inter-reduction make the reduced basis unique for
a given input and order.  Resource caps fail loudly instead of hanging.

Hot-path layout: monomials are packed (`_Packing`; compare Monagan & Pearce,
"Sparse polynomial division using a heap", JSC 2011), one int per exponent
vector whose fields, guard bits, degree and linear order key make a product
one addition, a divisibility test one subtraction and one mask, and the term
order integer comparison.  One heap loop, `_reduce_terms`, does every
reduction, on Python int coefficients: a divisor is an integer
lc*lead + tail, and a term c*e is pseudo-reduced by scaling the work by
lc/gcd(lc, c) instead of dividing by lc.  It keeps the remainder alone: no
quotient is tracked.  `normal_form` clears the denominators and packs on
entry, and divides by the kernel's scale and unpacks on exit.

Buchberger is split in two, a packed run and a finish.  The run is one
pair loop, `_pair_loop`, on packed integer generators: it makes them
primitive (`_primitive`: content removed, lc > 0) and keeps primitive
integer elements, pairs in a heap keyed by the packed lcm of their leads
(the normal strategy), a coprime test `lcm == a + b`, a guard-bit test for
the chain criterion, and no S-polynomial ever built (`_s_remainder`); it
returns the kept elements over the minimal leads as a `_Run`, which holds
packed integers only.  `buchberger_run` packs `Poly` generators
(`_cleared`) and enters it with their term lists; the fiber oracle packs
grad f once and enters it with each cone target (`polar._fiber_degree`).
Every integer work set is a positive multiple of the one over QQ, so the
same terms cancel and the same divisors act in the same sequence.  The
finish inter-reduces a run (`_inter_reduce`) and builds new monic `Poly`s
(`_Run.polys`); `buchberger` returns those of an `Ideal`.  An `Ideal`
keeps its run and, on demand, the reduced run.  Counts need only the run's
packed minimal leads, and never inter-reduce or build a `Fraction`:
`projective_dim` takes the Krull dimension alone (`_run_krull_dim`), and
only `quotient_vs_dim`, `run_quotient_dim` and the algebra list the
standard monomials (`_run_staircase`).  A run that follows a schedule has
the minimal leads, so the staircase and count, of the full run that made
it; the fiber oracle counts once per schedule.  `Fraction`s appear only at
the `Poly` boundary: generators and dividends on entry, `Ideal.basis` and
remainders on exit.  `Poly` keeps tuple monomials everywhere else.

Linear algebra on a zero-dimensional k[x]/I takes no Groebner work past
the algebra itself.  `Ideal.algebra` builds it once per ideal from the
reduced run: the standard monomials of the ideal's staircase and the
variable matrices M_{x_j} on integer rows over one common denominator, read
off the border of the staircase, one `_reduce_terms` per border monomial
that leads no element (compare Faugere, Gianni, Lazard & Mora, JSC 1993).
A multiplication matrix takes one `_reduce_terms` more, for its row of 1,
and one vector-matrix product per other standard monomial; `_echelon` and
`_stable_image` work fraction-free on primitive integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable

from .poly import (
    DomainMismatch,
    Mono,
    Poly,
    _grevlex_key,
    homogeneous_parts,
    is_homogeneous,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class GroebnerError(Exception):
    pass


class ResourceLimit(GroebnerError):
    """A configured basis-size or degree cap was exceeded."""


class NotZeroDimensional(GroebnerError):
    pass


class NotHomogeneousIdeal(GroebnerError):
    pass


@dataclass(frozen=True)
class Caps:
    max_basis: int = 600
    max_degree: int = 120

    def __post_init__(self):
        if self.max_basis < 1 or self.max_degree < 1:
            raise ValueError(
                f"caps must be at least 1: max_basis {self.max_basis}, max_degree {self.max_degree}"
            )


DEFAULT_CAPS = Caps()


# -------------------------------------------------------------- term orders


def _block_key(k: int):
    # the two grevlex keys of the blocks, flattened into one tuple
    def key(m: Mono):
        a, b = m[:k], m[k:]
        return (
            sum(a), tuple([-e for e in reversed(a)]), sum(b), tuple([-e for e in reversed(b)])
        )

    return key


def _composed(key, pick):
    return lambda m: key(pick(m))


@dataclass(frozen=True)
class TermOrder:
    """Monomial order: graded-reverse-lex, lex, or a two-block elimination
    order (grevlex inside each block).  `perm` lists variable indices from
    most to least significant; None means the natural order.

    `key` sorts monomials ascending in the order; it is built once, with the
    order, for its kind and `perm`."""

    kind: str
    perm: tuple[int, ...] | None = None
    block_size: int | None = None
    key: Callable[[Mono], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "grevlex":
            key = _grevlex_key
        elif self.kind == "lex":
            key = tuple
        elif self.kind == "block":
            key = _block_key(self.block_size or 0)
        else:
            raise ValueError(f"unknown term order kind {self.kind!r}")
        perm = self.perm
        if perm is not None and perm != tuple(range(len(perm))):
            get = itemgetter(*perm)
            pick = get if len(perm) > 1 else lambda m: (get(m),)
            key = _composed(key, pick)
        object.__setattr__(self, "key", key)


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


def elimination_order(eliminated: tuple[int, ...], kept: tuple[int, ...]) -> TermOrder:
    return TermOrder("block", perm=tuple(eliminated) + tuple(kept), block_size=len(eliminated))


def leading_monomial(p: Poly, order: TermOrder) -> Mono:
    """Largest monomial of a nonzero p."""
    return max(p.terms, key=order.key)


# --------------------------------------------------------- packed monomials


def _order_weights(order: TermOrder, n: int, W: int) -> list[int]:
    """Integer weights w such that sum(w_i * m_i) sorts monomials of total
    degree below W like `order.key`.  In a grevlex block of k variables, the
    variable at position pos (most significant first) weighs W^k - W^pos:
    the degree times W^k, less the exponents read as the base-W digits of a
    number whose top digit is the least significant variable.  Lex weighs
    position pos W^(n-1-pos), and a block order puts the first block's
    grevlex weights above the second's, times W^(size of the second + 2)."""
    sig = order.perm if order.perm is not None else tuple(range(n))

    def grevlex(block) -> list[int]:
        return [W ** len(block) - W**pos for pos in range(len(block))]

    if order.kind == "grevlex":
        by_position = grevlex(sig)
    elif order.kind == "lex":
        by_position = [W ** (n - 1 - pos) for pos in range(n)]
    else:
        k = order.block_size or 0
        scale = W ** (n - k + 2)
        by_position = [w * scale for w in grevlex(sig[:k])] + grevlex(sig[k:])
    weights = [0] * n
    for v, w in zip(sig, by_position):
        weights[v] = w
    return weights


class _Packing:
    """One int per monomial of n variables, for one term order and a field
    width of `bits` bits.  From the bottom up: a field per variable, each
    with a guard bit above it, then the total degree, then the order key
    sum(w_i * m_i) of `_order_weights`.  Every part is linear in the
    exponents, so the int of a product is the sum of the ints, and monomials
    compare as their ints.  a | b exactly when (b - a) leaves every guard bit
    clear: a borrow sets the guard bit of the lowest field where a is larger.

    Valid while every total degree stays below 2^bits; `_run_packing` is the
    one place that picks the width so that it does.  The divisibility test
    needs only every exponent below 2^bits, which is all the staircase walk
    (`_standard_monomials`) relies on."""

    __slots__ = ("order", "bits", "shifts", "top", "fmask", "guard", "coefs")

    def __init__(self, order: TermOrder, n: int, bits: int):
        stride = bits + 1
        self.order, self.bits = order, bits
        self.shifts = range(0, n * stride, stride)
        self.top = n * stride  # the degree field
        self.fmask = (1 << bits) - 1
        self.guard = sum(1 << (s + bits) for s in self.shifts)
        low = (n + 1) * stride  # the order key sits above the fields
        self.coefs = [
            (w << low) + (1 << s) + (1 << self.top)
            for w, s in zip(_order_weights(order, n, 1 << bits), self.shifts)
        ]

    def pack(self, m: Mono) -> int:
        return sum(map(mul, m, self.coefs))

    def unpack(self, e: int) -> Mono:
        fmask = self.fmask
        return tuple([(e >> s) & fmask for s in self.shifts])

    def top_degree(self, terms) -> int:
        """The largest degree among packed (monomial, c) terms; 0 for none."""
        top, fmask = self.top, self.fmask
        return max(((e >> top) & fmask for e, _ in terms), default=0)


def _cleared(p: Poly) -> tuple[int, dict]:
    """(L, the integer coefficients of L * p), for L the lcm of p's
    denominators."""
    L = lcm(*(c.denominator for c in p.terms.values()))
    return L, {m: c.numerator * (L // c.denominator) for m, c in p.terms.items()}


def _primitive(lc: int, tail: list) -> tuple[int, list, int]:
    """(lc / k, tail / k, k) for the content k of lc*lead + tail: the gcd of
    its integer coefficients, signed so that lc / k > 0."""
    k = gcd(lc, *(c for _, c in tail))
    if lc < 0:
        k = -k
    if k == 1:
        return lc, tail, 1
    return lc // k, [(t, c // k) for t, c in tail], k


def _reduce_terms(work: dict, by_lead: dict, packing: _Packing, caps: Caps) -> tuple[dict, int]:
    """(remainder, s): the remainder of s times the packed integer terms in
    `work` (consumed), in descending order, under full reduction, and the
    positive integer s it had to scale them by (1 when it scaled nothing).
    Each term is reduced by the first divisor in `by_lead` (packed lead ->
    (lc, tail degree, packed tail), the divisor lc*lead + tail, lc > 0)
    whose lead divides it; no quotient is kept.  A step on a term c*e takes
    g = gcd(lc, c), scales everything held so far (the work set and the
    remainder) by lc/g and subtracts (c/g)*shift*tail: a pseudo-reduction,
    with no division.  A step checks the cap on the shift's degree plus the
    tail's before any product, so no term exceeds max(degree in `work`,
    cap)."""
    guard, top, fmask, max_degree = packing.guard, packing.top, packing.fmask, caps.max_degree
    heap = [-e for e in work]
    heapify(heap)
    remainder: dict[int, int] = {}
    scale = 1
    while heap:
        e = -heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        for lead in by_lead:
            if not (e - lead) & guard:
                break
        else:
            remainder[e] = c
            continue
        lc, tail_deg, tail = by_lead[lead]
        shift = e - lead
        if tail and ((shift >> top) & fmask) + tail_deg > max_degree:
            raise ResourceLimit(f"degree cap {caps.max_degree} exceeded during reduction")
        if lc != 1:
            g = gcd(lc, c)
            s = lc // g
            c //= g
            if s != 1:
                scale *= s
                work = {t: s * x for t, x in work.items()}
                remainder = {t: s * x for t, x in remainder.items()}
        c = -c
        for t, tc in tail:
            t += shift
            old = work.get(t)
            if old is None:
                d = c * tc
                heappush(heap, -t)
            else:
                d = old + c * tc
            if d:
                work[t] = d
            else:
                del work[t]
    return remainder, scale


def _coefficients(terms, unpack, den: int) -> dict:
    """The packed integer terms, (packed monomial, c) pairs, over den as a
    `Poly` term dict."""
    return {unpack(e): Fraction(c, den) for e, c in terms}


def _reduce(p: Poly, divisors, order: TermOrder, caps: Caps) -> Poly:
    """The remainder of p under full reduction by the divisors, on the
    `_run_packing` of every degree given.  The kernel reduces L*p, with L
    the lcm of p's denominators, by the primitive integer divisors
    (`_cleared`, then `_primitive`) and scales by s; so the remainder is
    R / (s*L)."""
    nonzero = [g for g in divisors if g.terms]
    degree = max([0, *map(sum, p.terms), *(max(map(sum, g.terms)) for g in nonzero)])
    packing = _run_packing(order, len(p.vars), degree, caps)
    pack = packing.pack
    by_lead: dict[int, tuple] = {}
    for g in nonzero:
        (lead, lc), *tail = sorted(((pack(m), c) for m, c in _cleared(g)[1].items()), reverse=True)
        if lead not in by_lead:
            lc, tail, _ = _primitive(lc, tail)
            by_lead[lead] = (lc, packing.top_degree(tail), tail)
    L, terms = _cleared(p)
    work = {pack(m): c for m, c in terms.items()}
    remainder, s = _reduce_terms(work, by_lead, packing, caps)
    return Poly.from_clean(p.vars, _coefficients(remainder.items(), packing.unpack, s * L))


def normal_form(p: Poly, basis, order: TermOrder, caps: Caps = DEFAULT_CAPS) -> Poly:
    """Remainder of p under full reduction by `basis`."""
    basis = list(basis)
    if p.is_zero() or not basis:
        return p
    return _reduce(p, basis, order, caps)


def exact_div(p: Poly, g: Poly, order: TermOrder = GREVLEX, caps: Caps = DEFAULT_CAPS) -> Poly:
    """p / g for exact divisibility, by long division on g's leading term;
    raises GroebnerError otherwise.  A step checks the cap on its shift's
    degree plus g's tail degree, as `_reduce_terms` does."""
    if p.is_zero():
        return p
    lt = leading_monomial(g, order)
    lc, tail_deg = g.terms[lt], max((sum(m) for m in g.terms if m != lt), default=None)
    quotient: dict[Mono, Fraction] = {}
    work = dict(p.terms)
    while work:
        m = max(work, key=order.key)
        if not mono_divides(lt, m):
            raise GroebnerError("exact division has a nonzero remainder")
        shift = mono_div(m, lt)
        if tail_deg is not None and sum(shift) + tail_deg > caps.max_degree:
            raise ResourceLimit(f"degree cap {caps.max_degree} exceeded during reduction")
        quotient[shift] = c = work[m] / lc
        for t, x in g.terms.items():
            t = mono_mul(t, shift)
            d = work.get(t, 0) - c * x
            if d:
                work[t] = d
            else:
                del work[t]
    return Poly.from_clean(p.vars, quotient)


# --------------------------------------------------------------- buchberger


def s_polynomial(f: Poly, g: Poly, order: TermOrder) -> Poly:
    ltf = leading_monomial(f, order)
    ltg = leading_monomial(g, order)
    lcm = mono_lcm(ltf, ltg)
    mf = Poly.from_clean(f.vars, {mono_div(lcm, ltf): 1 / f.terms[ltf]})
    mg = Poly.from_clean(f.vars, {mono_div(lcm, ltg): 1 / g.terms[ltg]})
    return mf * f - mg * g


def _s_remainder(lcm: int, f, g, by_lead: dict, packing: _Packing, caps: Caps) -> dict:
    """The remainder (`_reduce_terms`) of the S-polynomial of the basis
    elements f and g, each a packed (lead, lc, tail) for lc*lead + tail,
    whose leads have the lcm `lcm`.  The S-polynomial is never built: with
    k = gcd(lc_f, lc_g) the leads of (lc_g/k)*shift_f*f and
    (lc_f/k)*shift_g*g cancel, and the two tails, shifted up to the lcm and
    scaled, go straight into the work set.  The remainder is a positive
    integer multiple of the S-polynomial's; the caller removes its content."""
    (lead_f, lc_f, tail_f), (lead_g, lc_g, tail_g) = f, g
    k = gcd(lc_f, lc_g)
    a, b = lc_g // k, lc_f // k
    shift = lcm - lead_f
    work = {t + shift: a * c for t, c in tail_f}
    shift = lcm - lead_g
    for t, c in tail_g:
        t += shift
        d = work.pop(t, 0) - b * c
        if d:
            work[t] = d
    return _reduce_terms(work, by_lead, packing, caps)[0]


class _Run:
    """Groebner elements of one ring, order and caps, held as packed
    integers only: element i is the primitive integer polynomial
    lcs[i]*leads[i] + tails[i] (`_primitive`), its packed tail in descending
    order.  The leads ascend and generate the leading-term ideal minimally.
    `buchberger_run` makes one and `_inter_reduce` a reduced copy; neither
    changes a run once made.  The polynomials (`polys`) are built only when
    asked for.  A pair loop's run keeps its `schedule` (see `_pair_loop`); a
    reduced copy keeps None."""

    __slots__ = ("vars", "order", "caps", "packing", "leads", "lcs", "tails", "schedule", "_polys")

    def __init__(self, vars, order, caps, packing, leads, lcs, tails, schedule=None):
        self.vars, self.order, self.caps, self.packing = vars, order, caps, packing
        self.leads, self.lcs, self.tails, self.schedule = leads, lcs, tails, schedule
        self._polys = None

    def divisors(self) -> dict:
        """The elements as `_reduce_terms` reads its divisors, in the order
        of their leads."""
        degree = self.packing.top_degree
        return {lead: (lc, degree(tail), tail) for lead, lc, tail in zip(self.leads, self.lcs, self.tails)}

    def polys(self) -> tuple[Poly, ...]:
        """The elements as new monic `Poly`s, leads descending, each its lead
        and then its tail's terms c / lc.  Built once."""
        if self._polys is None:
            unpack = self.packing.unpack
            self._polys = tuple(
                Poly.from_clean(self.vars, {unpack(lead): Fraction(1), **_coefficients(tail, unpack, lc)})
                for lead, lc, tail in zip(reversed(self.leads), reversed(self.lcs), reversed(self.tails))
            )
        return self._polys


def _intake_cmp(unpack):
    """Comparison of intake elements (lead, lc, tail): by packed lead, then,
    on equal leads, by the sorted (monomial, coefficient) items of the monic
    polynomials, the coefficients c / lc compared by cross multiplication
    (lc > 0)."""

    def items(x):
        lead, lc, tail = x
        return lc, sorted((unpack(e), c) for e, c in [(lead, lc), *tail])

    def cmp(x, y) -> int:
        if x[0] != y[0]:
            return -1 if x[0] < y[0] else 1
        (lx, tx), (ly, ty) = items(x), items(y)
        for (mx, cx), (my, cy) in zip(tx, ty):
            if mx != my:
                return -1 if mx < my else 1
            if cx * ly != cy * lx:
                return -1 if cx * ly < cy * lx else 1
        return len(tx) - len(ty)

    return cmp


def _run_packing(order: TermOrder, nvars: int, degree: int, caps: Caps) -> _Packing:
    """The packing of a pair loop or a reduction on polynomials of degree at
    most `degree`: it holds twice the larger of that and the degree cap.  No
    basis element or product is larger than either (one above the cap
    raises), so every S-polynomial and reduction fits."""
    return _Packing(order, nvars, (2 * max(caps.max_degree, degree)).bit_length())


def buchberger_run(gens, order: TermOrder = GREVLEX, caps: Caps = DEFAULT_CAPS) -> _Run:
    """The pair loop (`_pair_loop`) on nonzero `Poly` generators of one ring,
    at least one (`Ideal.gens`): each one packed on one `_run_packing` with
    its denominators cleared (`_cleared`), its terms descending."""
    packing = _run_packing(order, len(gens[0].vars), max(g.degree() for g in gens), caps)
    pack = packing.pack
    packed = [sorted(((pack(m), c) for m, c in _cleared(g)[1].items()), reverse=True) for g in gens]
    return _pair_loop(gens[0].vars, packing, caps, packed)


def _pair_loop(vars, packing: _Packing, caps: Caps, gens, follow=None) -> _Run | None:
    """Buchberger's pair loop (normal strategy, both skip criteria) and the
    minimal leading terms: a `_Run` of the kept elements, not inter-reduced.
    `gens` holds term lists, possibly none: the packed integer terms of a
    nonzero generator (its denominators cleared), descending.

    The loop is fraction-free.  Each element is a primitive integer
    polynomial (`_primitive`: its content removed and lc > 0): at intake a
    generator made primitive, which is its monic form times its lc.  Equal
    forms are taken once, and they enter by packed lead ascending, ties
    broken by the sorted terms of the monic forms (`_intake_cmp`).  An
    element is made primitive again whenever a reduction makes it.  No
    `Fraction` and no `Poly` is built.

    The run keeps its schedule: the intake's leads, each reduced pair as
    (lcm, i, j, the remainder's lead or None for zero), and the indices of
    the minimal leads among all the elements made.  The loop's choices
    (intake and pair order, both criteria, the kept leads) read nothing else,
    so generators that reproduce a schedule of this packing get the very run
    the full loop would build (compare Traverso's Groebner trace, ISSAC
    1988), with the same leads, hence the same staircase.  `follow`, such a
    schedule, replaces the queue, the criteria and the minimalization; every
    reduction and cap check is still made, and the loop returns None at the
    first intake lead, zero or remainder lead that differs, for the caller
    to run the full loop."""
    pack, unpack, guard, top, fmask = packing.pack, packing.unpack, packing.guard, packing.top, packing.fmask
    forms = set()
    for (lead, lc), *tail in gens:
        lc, tail, _ = _primitive(lc, tail)
        forms.add((lead, lc, tuple(tail)))
    intake = sorted(forms, key=cmp_to_key(_intake_cmp(unpack)))
    schedule = ([form[0] for form in intake], [])
    if follow is not None and follow[0] != schedule[0]:
        return None

    # element i: packed lead lts[i] (exps[i] unpacked, when queueing) with
    # the integer coefficient lcs[i] and packed tail tails[i] in descending
    # order
    lts, exps, lcs, tails = [], [], [], []
    by_lead: dict[int, tuple] = {}  # the divisors, as `_reduce_terms` reads them
    pending: set[tuple[int, int]] = set()
    queue: list = []  # heap of (packed lcm of the leads, i, j), the pair selection

    def add(lead: int, lc: int, tail) -> None:
        idx = len(lts)
        if idx + 1 > caps.max_basis:
            raise ResourceLimit(f"basis cap {caps.max_basis} exceeded")
        if follow is None:
            lt = unpack(lead)
            for i, other in enumerate(exps):
                pending.add((i, idx))
                heappush(queue, (pack(map(max, other, lt)), i, idx))
            exps.append(lt)
        lts.append(lead)
        lcs.append(lc)
        tails.append(tail)
        if lead not in by_lead:
            by_lead[lead] = lc, packing.top_degree(tail), tail

    def selected():
        # the normal strategy: pairs by lcm, less those the criteria skip
        while queue:
            lcm, i, j = heappop(queue)
            pending.discard((i, j))
            if lcm == lts[i] + lts[j]:
                continue  # coprime leading terms
            third = [k for k, lead in enumerate(lts) if not (lcm - lead) & guard and k != i and k != j]
            if any((min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending for k in third):
                continue  # the chain criterion
            yield lcm, i, j, None

    for form in intake:
        add(*form)

    for lcm, i, j, expected in selected() if follow is None else follow[1]:
        rem = _s_remainder(
            lcm, (lts[i], lcs[i], tails[i]), (lts[j], lcs[j], tails[j]), by_lead, packing, caps
        )
        lead = next(iter(rem), None)  # the first term popped is the lead
        if follow is None:
            schedule[1].append((lcm, i, j, lead))
        elif lead != expected:
            return None
        if rem:
            if max((t >> top) & fmask for t in rem) > caps.max_degree:
                raise ResourceLimit(f"degree cap {caps.max_degree} exceeded")
            (_, lc), *tail = rem.items()
            add(lead, *_primitive(lc, tail)[:2])

    if follow is None:  # minimal generators of the leading-term ideal, ascending
        kept: list[int] = []
        for i in sorted(range(len(lts)), key=lts.__getitem__):
            if not any(not (lts[i] - lts[k]) & guard for k in kept):
                kept.append(i)
        schedule = (*schedule, kept)
    else:
        schedule = follow
    return _Run(
        vars, packing.order, caps, packing,
        *([seq[i] for i in schedule[2]] for seq in (lts, lcs, tails)),
        schedule=schedule,
    )


def _inter_reduce(run: _Run) -> _Run:
    """The reduced basis of a run, as a new `_Run`: tails inter-reduced until
    stable.  No lead divides a term of its own tail, so every element
    reduces each tail, and a tail scaled by s scales its lc by s."""
    packing, caps = run.packing, run.caps
    lcs, tails = list(run.lcs), list(run.tails)
    reducers = run.divisors()
    changed = True
    while changed:
        changed = False
        for i, lead in enumerate(run.leads):
            before = dict(tails[i])
            rem, s = _reduce_terms(dict(before), reducers, packing, caps)
            if rem != before:
                lcs[i], tails[i], _ = _primitive(lcs[i] * s, list(rem.items()))
                changed = True
                reducers[lead] = (lcs[i], packing.top_degree(tails[i]), tails[i])
    return _Run(run.vars, run.order, caps, packing, run.leads, lcs, tails)


def buchberger(gens, order: TermOrder = GREVLEX, caps: Caps = DEFAULT_CAPS) -> list[Poly]:
    """Unique reduced Groebner basis, leads descending: the `basis` of the
    `Ideal` of the nonzero generators, so the pair loop (`buchberger_run`),
    then the finish, inter-reduction (`_inter_reduce`) and the `Poly`s
    (`_Run.polys`).  Fractions come back only in the output: new monic
    `Poly`s, never the objects given."""
    gens = [g for g in gens if not g.is_zero()]
    return list(Ideal(gens, order, caps=caps).basis) if gens else []


# -------------------------------------------------------------------- ideal


class Ideal:
    """Generator list with a term order, resource caps and four lazily
    cached values: the pair loop's packed `run`, the `reduced` run finished
    from it (whose `Poly`s are the `basis`), the packed `stairs` of the run
    and, for a zero-dimensional ideal, the `QuotientAlgebra` k[x]/I.
    Counts read the run alone: the staircase takes its leads, so
    `quotient_vs_dim` and `projective_dim` neither inter-reduce nor build a
    `Fraction`, and `projective_dim` lists no standard monomial.  Every
    ideal derived from this one (intersection, elimination, quotient,
    saturation) keeps its order and caps.

    Instances are immutable; each cached value is computed at most once and
    then shared read-only, so concurrent readers are safe, and it is freed
    with the ideal.
    """

    __slots__ = ("gens", "order", "vars", "caps", "_run", "_basis", "_staircase", "_algebra")

    def __init__(self, gens, order: TermOrder = GREVLEX, vars=None, caps: Caps = DEFAULT_CAPS):
        gens = tuple(g for g in gens if not g.is_zero())
        if gens:
            vars = gens[0].vars
            for g in gens:
                if g.vars != vars:
                    raise DomainMismatch("generators live in different rings")
        elif vars is None:
            raise ValueError("zero ideal needs explicit vars")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_run", None)
        object.__setattr__(self, "_basis", None)
        object.__setattr__(self, "_staircase", None)
        object.__setattr__(self, "_algebra", None)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    @property
    def run(self) -> _Run | None:
        """The pair loop's output (`buchberger_run`); None for the zero ideal."""
        if self._run is None and self.gens:
            object.__setattr__(self, "_run", buchberger_run(self.gens, self.order, self.caps))
        return self._run

    @property
    def reduced(self) -> _Run | None:
        """The reduced basis as packed integer elements (`_inter_reduce` of
        the run); None for the zero ideal."""
        if self._basis is None and self.gens:
            object.__setattr__(self, "_basis", _inter_reduce(self.run))
        return self._basis

    @property
    def basis(self) -> tuple[Poly, ...]:
        """The reduced Groebner basis, leads descending."""
        reduced = self.reduced
        return () if reduced is None else reduced.polys()

    @property
    def stairs(self) -> list[int] | None:
        """`_run_staircase` of the run: the packed standard monomials when
        the ideal is zero-dimensional, listed once and kept, else None, as
        for the zero ideal.  Only a count (`quotient_vs_dim`) and the algebra
        read them; `projective_dim` reads the run's leads alone."""
        if self._staircase is None and self.run is not None:
            # kept in a 1-tuple, so that a kept None is not recomputed
            object.__setattr__(self, "_staircase", (_run_staircase(self.run),))
        return None if self._staircase is None else self._staircase[0]

    @property
    def algebra(self) -> "QuotientAlgebra":
        """k[x]/I; raises NotZeroDimensional unless it is finite."""
        if self._algebra is None:
            object.__setattr__(self, "_algebra", QuotientAlgebra(self))
        return self._algebra

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.run is not None and self.run.leads[0] == 0  # 1 packs to 0

    def contains(self, p: Poly) -> bool:
        if self.is_zero_ideal():
            return p.is_zero()
        return normal_form(p, self.basis, self.order, self.caps).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def is_homogeneous(self) -> bool:
        return all(is_homogeneous(g) for g in self.gens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.contains_ideal(other) and other.contains_ideal(self)

    def __hash__(self):
        raise TypeError("Ideal is unhashable; compare with ==")

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.vars})"


def _fresh_var(vars: tuple[str, ...]) -> str:
    i = 0
    while f"t{i}" in vars:
        i += 1
    return f"t{i}"


def _prepend_var(p: Poly, name: str, t_exponent: int) -> Poly:
    new_vars = (name,) + p.vars
    return Poly(new_vars, {(t_exponent,) + m: c for m, c in p.terms.items()})


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via the single-auxiliary-variable elimination trick."""
    if I.vars != J.vars:
        raise DomainMismatch("ideals live in different rings")
    if I.is_zero_ideal():
        return I
    if J.is_zero_ideal():
        return J
    tname = _fresh_var(I.vars)
    lifted = [_prepend_var(g, tname, 1) for g in I.gens]
    for g in J.gens:
        lifted.append(_prepend_var(g, tname, 0) - _prepend_var(g, tname, 1))
    nv = len(I.vars) + 1
    order = elimination_order((0,), tuple(range(1, nv)))
    basis = buchberger(lifted, order, I.caps)
    kept = []
    for g in basis:
        if all(m[0] == 0 for m in g.terms):
            kept.append(Poly(I.vars, {m[1:]: c for m, c in g.terms.items()}))
    return Ideal(kept, I.order, vars=I.vars, caps=I.caps)


def ideal_quotient(I: Ideal, g: Poly) -> Ideal:
    """I : g, computed as (I ∩ (g)) / g."""
    if g.is_zero():
        raise ValueError("quotient by the zero polynomial")
    if I.is_zero_ideal():
        return I
    inter = intersect(I, Ideal([g], I.order, caps=I.caps))
    qgens: list[Poly] = []
    split = I.is_homogeneous() and is_homogeneous(g)
    for h in inter.gens:
        q = exact_div(h, g, I.order, I.caps)
        if split:
            qgens.extend(homogeneous_parts(q))
        else:
            qgens.append(q)
    return Ideal(qgens, I.order, vars=I.vars, caps=I.caps)


def saturate(I: Ideal, g: Poly) -> tuple[Ideal, int]:
    """(I : g^inf, N) by iterated quotients; N is the stabilization exponent,
    so g^N * (I : g^inf) is contained in I."""
    if g.is_zero():
        raise ValueError("saturation by the zero polynomial")
    current = I
    steps = 0
    while True:
        nxt = ideal_quotient(current, g)
        if current.contains_ideal(nxt):
            return current, steps
        current = nxt
        steps += 1


def saturate_ideal(I: Ideal, J: Ideal) -> Ideal:
    """I : J^inf.  Equals the intersection of the saturations by the
    generators of J; a single pass is already stable because a product of
    high powers of the generators contains a high power of each."""
    gens = [g for g in J.gens if not g.is_zero()]
    if not gens:
        raise ValueError("saturation by the zero ideal")
    parts = [saturate(I, g)[0] for g in gens]
    result = parts[0]
    for part in parts[1:]:
        result = intersect(result, part)
    if result.is_homogeneous():
        regraded: list[Poly] = []
        for g in result.gens:
            regraded.extend(homogeneous_parts(g))
        result = Ideal(regraded, I.order, vars=I.vars, caps=I.caps)
    return result


# ---------------------------------------------------------------- staircase


@dataclass(frozen=True)
class StaircaseReport:
    """Leading-term data of a reduced basis: the staircase, the standard
    monomials when finitely many, and the Krull dimension of the
    leading-term quotient."""

    lead_monomials: tuple[Mono, ...]
    standard_monomials: tuple[Mono, ...] | None
    krull_dim: int


def _by_degree(m: Mono) -> tuple:
    return mono_degree(m), m


def _minimalize(monos) -> list[Mono]:
    out: list[Mono] = []
    for m in sorted(set(monos), key=_by_degree):
        if not any(mono_divides(k, m) for k in out):
            out.append(m)
    return out


def _krull_dim(supports: list[int], nvars: int) -> int:
    """Affine Krull dimension of k[x]/(leads), from the variable sets of the
    leads (bit i for x_i), none of them empty: the size of the largest
    variable subset containing none of them; 0 when every variable has a
    pure power."""
    if all(1 << i in supports for i in range(nvars)):
        return 0
    best = 0
    for subset in range(1 << nvars):
        size = subset.bit_count()
        if size > best and all(s & ~subset for s in supports):
            best = size
    return best


def _standard_monomials(leads: list[int], packing: _Packing) -> list[int]:
    """The packed monomials outside the monomial ideal of the packed `leads`,
    which holds a pure power of every variable.  A pruned walk: from 1,
    multiply by x_j for j at least the last variable used, and stop at any
    multiple of a lead, so each standard monomial is reached once, from
    itself divided by its last variable.  A candidate is tested against the
    leads by the loop `_reduce_terms` uses."""
    guard, step = packing.guard, packing.coefs  # step[j] is x_j packed
    std = [0]
    stack = [(0, 0)]  # (monomial, the last variable used)
    while stack:
        e, last = stack.pop()
        for j in range(last, len(step)):
            u = e + step[j]
            for lead in leads:
                if not (u - lead) & guard:
                    break
            else:
                std.append(u)
                stack.append((u, j))
    return std


_INFINITE = "no pure power of some variable among the leading terms"


def _run_krull_dim(run: _Run) -> int:
    """The Krull dimension of k[x]/I for the ideal I of a run, read off the
    run's packed minimal leads alone; -1 for the unit ideal, and for a run
    with no leads, that of the zero ideal."""
    if run.leads[:1] == [0]:  # the unit ideal: 1 packs to 0
        return -1
    unpack = run.packing.unpack
    supports = [sum(1 << i for i, x in enumerate(unpack(e)) if x) for e in run.leads]
    return _krull_dim(supports, len(run.vars))


def _run_staircase(run: _Run) -> list[int] | None:
    """The packed standard monomials of k[x]/I for the ideal I of a run when
    it is zero-dimensional (`_run_krull_dim`), else None; [] for the unit
    ideal."""
    dim = _run_krull_dim(run)
    if dim > 0:
        return None
    return [] if dim < 0 else _standard_monomials(run.leads, run.packing)


def staircase(I: Ideal) -> StaircaseReport:
    """The staircase of I, unpacked from `I.stairs` and sorted by degree."""
    run, nv = I.run, len(I.vars)
    if run is None:  # the zero ideal: every monomial is standard
        return StaircaseReport((), None if nv else ((),), nv)
    unpack, std = run.packing.unpack, I.stairs
    return StaircaseReport(
        lead_monomials=tuple(sorted(map(unpack, run.leads), key=_by_degree)),
        standard_monomials=None if std is None else tuple(sorted(map(unpack, std), key=_by_degree)),
        krull_dim=_run_krull_dim(run),
    )


def projective_dim(I: Ideal) -> int:
    """Dimension of Proj of the quotient; -1 for the empty scheme.  Read off
    the run's minimal leads (`_run_krull_dim`), with no standard monomial
    listed."""
    if not I.is_homogeneous():
        raise NotHomogeneousIdeal("projective dimension needs homogeneous generators")
    if I.is_zero_ideal():
        return len(I.vars) - 1
    return max(_run_krull_dim(I.run) - 1, -1)


def quotient_vs_dim(I: Ideal) -> int:
    """Vector-space dimension of k[x]/I for a zero-dimensional affine ideal."""
    if I.is_zero_ideal():
        raise NotZeroDimensional("the zero ideal has an infinite quotient")
    std = I.stairs
    if std is None:
        raise NotZeroDimensional(_INFINITE)
    return len(std)


def run_quotient_dim(run: _Run) -> int:
    """`quotient_vs_dim` of the ideal of a run, for a caller that holds the
    run and no `Ideal`: its number of standard monomials (`_run_staircase`)."""
    std = _run_staircase(run)
    if std is None:
        raise NotZeroDimensional(_INFINITE)
    return len(std)


# ------------------------------------------------- multiplication matrices


class QuotientAlgebra:
    """k[x]/I for a zero-dimensional I, in the basis of its standard
    monomials `std`, sorted by degree (`_by_degree`); `index` maps each one,
    packed on the packing of `run` = `I.reduced`, to its position.  The
    variable matrices are on integer rows: `rows[j][i]` is D times the
    coordinates of the normal form of x_j * std[i], for D the lcm of the
    denominators of those coordinates in lowest terms, and `cols[j]` the
    same matrix by columns.  Built with no `Fraction`: a standard monomial is
    its own normal form, a lead's is minus the rest of its reduced element,
    and each other border monomial takes one `_reduce_terms` by the reduced
    elements (`divisors`).  Built once per ideal and read-only; see
    `Ideal.algebra`."""

    __slots__ = ("std", "index", "run", "divisors", "denominator", "rows", "cols")

    def __init__(self, I: Ideal):
        packed = I.stairs
        if packed is None:
            raise NotZeroDimensional(_INFINITE)
        R = I.reduced
        packing = R.packing
        std = tuple(sorted(map(packing.unpack, packed), key=_by_degree))
        index = {e: i for i, e in enumerate(map(packing.pack, std))}
        # packed monomial -> (v, s): its normal form is v / s for the packed
        # integer terms v
        nf: dict[int, tuple[dict, int]] = {e: ({e: 1}, 1) for e in index}
        for lead, lc, tail in zip(R.leads, R.lcs, R.tails):
            nf[lead] = {t: -c for t, c in tail}, lc
        divisors = R.divisors()
        products = [[e + step for e in index] for step in packing.coefs]  # step is x_j packed
        for shifted in products:
            for u in shifted:
                if u not in nf:
                    nf[u] = _reduce_terms({u: 1}, divisors, packing, R.caps)
        D = lcm(*(s // gcd(c, s) for v, s in nf.values() for c in v.values()))
        self.std, self.index, self.run, self.divisors, self.denominator = std, index, R, divisors, D
        self.rows = [
            [[v[e] * D // s if e in v else 0 for e in index] for v, s in map(nf.get, shifted)]
            for shifted in products
        ]
        self.cols = [[list(c) for c in zip(*rows)] for rows in self.rows]

    def scaled_matrix(self, g: Poly) -> tuple[list[list[int]], int]:
        """(R, s) with R the matrix of multiplication by g on integer rows and
        s a positive integer, R = s * M_g.  The row of 1 is NF(g), one
        `_reduce_terms` of g by the reduced elements, as for the border
        monomials.  Every other standard monomial is m = x_j * m' for the
        first variable x_j of m, with m' standard and earlier in `std` (its
        packing is m's less x_j's), and the row of m is row(m') * M_{x_j},
        one vector-matrix product (compare Faugere, Gianni, Lazard & Mora,
        JSC 1993).  Each row is kept primitive with its exact rational scale,
        and the rows are put over one common scale at the end."""
        index, D, packing = self.index, self.denominator, self.run.packing
        L, terms = _cleared(g)
        if not index:  # the unit ideal
            return [], L
        work = {packing.pack(m): c for m, c in terms.items()}
        nf, scale = _reduce_terms(work, self.divisors, packing, self.run.caps)
        first = [nf.get(e, 0) for e in index]

        def kept(w: list[int], q: Fraction) -> tuple[list[int], Fraction]:
            # the row w * q, made primitive
            k = gcd(*w)
            return ([x // k for x in w], q * k) if k > 1 else (w, q)

        guard, steps = packing.guard, packing.coefs
        ms = iter(index)
        rows = {next(ms): kept(first, Fraction(1, scale * L))}  # std[0] is 1
        for m in ms:
            j = next(j for j, step in enumerate(steps) if not (m - step) & guard)
            v, q = rows[m - steps[j]]
            rows[m] = kept([sum(map(mul, v, col)) for col in self.cols[j]], q / D)
        s = lcm(*(q.denominator for _, q in rows.values()))
        out = []
        for v, q in rows.values():
            c = q.numerator * (s // q.denominator)
            out.append([x * c for x in v])
        return out, s


def _scaled_matrix(I: Ideal, g: Poly) -> tuple[tuple[Mono, ...], list[list[int]], int]:
    if I.vars != g.vars:
        raise DomainMismatch("ideal and multiplier live in different rings")
    A = I.algebra
    top = max(map(sum, A.std), default=0)
    if not g.is_zero() and g.degree() + top > I.caps.max_degree:
        raise ResourceLimit(f"degree cap {I.caps.max_degree} exceeded by a product")
    return A.std, *A.scaled_matrix(g)


def _echelon(rows) -> list[list[int]]:
    """A basis of the row space of integer rows in reduced echelon form,
    each row primitive.  A row is cleared at a pivot by r <- s*r - t*b, with
    s and t the pivot entries of b and r divided by their gcd (fraction-free,
    compare Bareiss, Math. Comp. 1968).  Clearing each new pivot from the
    rows already kept is not needed for the rank, but keeps the entries
    small."""
    basis: list[tuple[int, list[int]]] = []

    def combine(r, b, col):
        c, pb = r[col], b[col]
        g = gcd(c, pb)
        s, t = pb // g, c // g
        r = [s * x - t * y for x, y in zip(r, b)]
        g = gcd(*r)
        return [x // g for x in r] if g > 1 else r

    for r in rows:
        for col, b in basis:
            if r[col]:
                r = combine(r, b, col)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        g = gcd(*r)
        r = [x // g for x in r] if g > 1 else r
        for k, (col, b) in enumerate(basis):
            if b[pivot]:
                basis[k] = (col, combine(b, r, pivot))
        basis.append((pivot, r))
    return [b for _, b in basis]


def _stable_image(rows) -> list[list[int]]:
    """An echelon basis (`_echelon`) of the stable image of the integer
    square matrix `rows` acting on row vectors: the images of M, M^2, ...
    shrink until two have equal dimension, within len(rows) steps, and an
    invertible M has the whole space as its first.  Each image is
    kept as an echelon basis, which keeps the entries small where powers of
    M would not.  A nonzero scale of M changes none of the images."""
    image = _echelon(rows)
    if len(image) == len(rows):  # M is invertible: every image is the whole space
        return image
    cols = list(zip(*rows))
    while True:
        nxt = _echelon([[sum(map(mul, v, col)) for col in cols] for v in image])
        if len(nxt) == len(image):
            return image
        image = nxt


def local_component_dim(I: Ideal, forms) -> int:
    """Dimension of the part of a zero-dimensional k[x]/I on which
    every polynomial in `forms` vanishes: the sum of the local algebras at
    the points of V(I) where they all vanish.  Multiplication by g acts on
    the local algebra at p as g(p) plus a nilpotent (Stickelberger's
    theorem), so the stable image of its matrix is the sum of the local
    algebras where g(p) != 0, and the stable images of the forms together
    span the local algebras where some form does not vanish.  Runs on the
    integer matrices of `QuotientAlgebra.scaled_matrix`."""
    total = len(I.algebra.std)
    images: list[list[int]] = []
    for g in forms:
        images += _stable_image(_scaled_matrix(I, g)[1])
    return total - len(_echelon(images))


def hilbert_numerator(leads, nvars: int) -> list[int]:
    """Coefficients of the Hilbert-series numerator of k[x]/(leads) over
    (1-t)^nvars, via the colon recursion on monomial ideals."""
    mins = tuple(_minimalize(leads))
    memo: dict[tuple[Mono, ...], dict[int, int]] = {}

    def rec(gens: tuple[Mono, ...]) -> dict[int, int]:
        if not gens:
            return {0: 1}
        if any(mono_degree(m) == 0 for m in gens):
            return {}
        cached = memo.get(gens)
        if cached is not None:
            return cached
        pivot = gens[-1]
        rest = gens[:-1]
        a = rec(rest)
        colon = tuple(
            _minimalize(tuple(max(e - f, 0) for e, f in zip(g, pivot)) for g in rest)
        )
        b = rec(colon)
        out = dict(a)
        d = mono_degree(pivot)
        for k, v in b.items():
            nv = out.get(k + d, 0) - v
            if nv:
                out[k + d] = nv
            else:
                out.pop(k + d, None)
        memo[gens] = out
        return out

    series = rec(mins)
    if not series:
        return [0]
    top = max(series)
    return [series.get(k, 0) for k in range(top + 1)]


def _divide_one_minus_t(coeffs: list[int]) -> list[int]:
    # exact division by (1 - t); prefix sums, assuming the value at 1 is 0
    out = []
    acc = 0
    for c in coeffs[:-1]:
        acc += c
        out.append(acc)
    return out or [0]


def zero_dim_degree_projective(I: Ideal) -> int:
    """Degree of a zero-dimensional projective scheme: the stable value of
    the Hilbert function, read off the staircase."""
    if projective_dim(I) != 0:
        raise NotZeroDimensional("projective scheme is not zero-dimensional")
    num = hilbert_numerator(staircase(I).lead_monomials, len(I.vars))
    strips = 0
    while sum(num) == 0:
        num = _divide_one_minus_t(num)
        strips += 1
    if len(I.vars) - strips != 1:
        raise GroebnerError("staircase dimension does not match the Hilbert series")
    return sum(num)
