"""Outside-in per-layer trace for the polargrad benchmark.

`Tracer.install()` rebinds selected public functions of polargrad with timing
wrappers in every `polargrad` module namespace that holds them, so calls made
through `from .groebner import saturate` bindings and through module globals
(``Ideal.basis`` looks up ``buchberger`` in ``groebner``) are all seen.  Every
binding is restored on exit.  Nothing inside the package is edited.

A span's self time is its duration minus the durations of the wrapped calls
made directly inside it.  A function's total time counts only its outermost
activation, so a function that re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) pairs wrapped by the trace; the module is the one that
# defines the function, and the span name is "<module>.<function>".
TRACED = (
    ("report", "analyze_polynomial"),
    ("polar", "polar_degree_fiber_oracle"),
    ("hypersurface", "mu_summary"),
    ("hypersurface", "generic_frame"),
    ("hypersurface", "tame_split"),
    ("hypersurface", "rational_singular_points"),
    ("hypersurface", "local_milnor_number"),
    ("hypersurface", "local_component_dim"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "s_polynomial"),
    ("groebner", "intersect"),
    ("groebner", "ideal_quotient"),
    ("groebner", "saturate"),
    ("groebner", "saturate_ideal"),
    ("groebner", "staircase"),
    ("groebner", "hilbert_numerator"),
    ("poly", "squarefree_probe"),
    ("poly", "substitute_linear"),
)

# buchberger is reported per coefficient domain instead of as one span
BUCHBERGER = "groebner.buchberger"
SPAN_NAMES = tuple(
    name
    for module, fn in TRACED
    for name in (
        (f"{BUCHBERGER}.qq", f"{BUCHBERGER}.gf")
        if f"{module}.{fn}" == BUCHBERGER
        else (f"{module}.{fn}",)
    )
)

# counters derived from arguments and return values, with their units; all
# are exact integers
COUNTERS = {
    f"{BUCHBERGER}.qq.basis_max": "count",
    f"{BUCHBERGER}.qq.degree_max": "degree",
    f"{BUCHBERGER}.qq.coeff_bits_max": "bits",
    f"{BUCHBERGER}.gf.basis_max": "count",
    f"{BUCHBERGER}.gf.degree_max": "degree",
    "groebner.saturate.steps": "count",
    "hypersurface.generic_frame.draws": "count",
    "polar.oracle.targets": "count",
    "polar.oracle.rational_fallbacks": "count",
    "groebner.normal_form.buchberger_reductions": "count",
    "groebner.normal_form.buchberger_zero_reductions": "count",
}


def _coeff_bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Span statistics and counters for one traced pass.  Single-threaded."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span name, time covered by children]
        self._depth: Counter = Counter()

    # ------------------------------------------------------------- spans

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _leave(self, frame: list, duration: float) -> None:
        self._stack.pop()
        name = frame[0]
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        if self._depth[name] == 0:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(frame, time.perf_counter() - start)

    def _maximum(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    # ------------------------------------------------------ wrapped calls

    def _wrapper(self, name: str, fn):
        if name == BUCHBERGER:
            return self._buchberger_wrapper(fn)
        observe = {
            "groebner.normal_form": self._observe_normal_form,
            "groebner.saturate": self._observe_saturate,
            "hypersurface.generic_frame": self._observe_generic_frame,
            "polar.polar_degree_fiber_oracle": self._observe_oracle,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result, parent)
            return result

        return wrapper

    def _buchberger_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(gens, *args, **kwargs):
            gens = list(gens)  # may be an iterator; it is read twice here
            field = "gf" if gens and gens[0].domain.is_prime_field else "qq"
            name = f"{BUCHBERGER}.{field}"
            basis = self.span(name, fn, gens, *args, **kwargs)
            self._maximum(f"{name}.basis_max", len(basis))
            self._maximum(f"{name}.degree_max", max((p.degree() for p in basis), default=0))
            if field == "qq":
                bits = max((_coeff_bits(c) for p in basis for c in p.terms.values()), default=0)
                self._maximum(f"{name}.coeff_bits_max", bits)
            return basis

        return wrapper

    def _observe_normal_form(self, result, parent) -> None:
        if parent is not None and parent.startswith(BUCHBERGER):
            self.counts["groebner.normal_form.buchberger_reductions"] += 1
            if result.is_zero():
                self.counts["groebner.normal_form.buchberger_zero_reductions"] += 1

    def _observe_saturate(self, result, parent) -> None:
        self.counts["groebner.saturate.steps"] += result[1]

    def _observe_generic_frame(self, result, parent) -> None:
        self.counts["hypersurface.generic_frame.draws"] += result.draws

    def _observe_oracle(self, result, parent) -> None:
        self.counts["polar.oracle.targets"] += len(result.details["values"])
        self.counts["polar.oracle.rational_fallbacks"] += sum(
            1 for t in result.details["trials"] if t["path"] == "rational (prime fallback)"
        )

    @contextmanager
    def install(self):
        """Rebind every traced function in every loaded polargrad module for
        the duration of the block, then restore the original bindings."""
        import polargrad  # noqa: F401  (loads every submodule)

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "polargrad" or n.startswith("polargrad."))
        ]
        saved: list[tuple[object, str, object]] = []
        try:
            for module, fn_name in TRACED:
                original = getattr(sys.modules[f"polargrad.{module}"], fn_name)
                wrapped = self._wrapper(f"{module}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, attr, original))
                            setattr(m, attr, wrapped)
            yield self
        finally:
            for m, attr, original in reversed(saved):
                setattr(m, attr, original)

    # ----------------------------------------------------------- results

    def count_snapshot(self) -> dict:
        """Every exact count of the pass: calls per span and all counters.
        Two passes over the same inputs and seed must give equal snapshots."""
        snap = {f"{n}.calls": self.calls[n] for n in SPAN_NAMES}
        snap.update({k: self.counts[k] for k in COUNTERS})
        return snap
