#!/usr/bin/env python3
"""polargrad benchmark: exact verdicts for fixed sets of polynomials.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload smooth|singular|oracle \
        --seed N --seconds S --trace 0|1 [--analysis-seed A]

One process with one thread makes passes over the workload's inputs, each
input through `polargrad.catalog.run_entry`, which checks the verdict against
its expected value.  `--seed` sets the order of the inputs in the passes.

`--analysis-seed` (default 1, the default of `polargrad analyze` and
`polargrad catalog run`) is the seed polargrad draws frames and oracle targets
from.  Verdicts do not depend on it, but the amount of work does: over
analysis seeds 1..10 one pass of `smooth` took 4.7 to 9.1 s and one of
`oracle` 10.4 to 17.5 s (2-vCPU Xeon VM, Python 3.11).  So every timed run
uses the same analysis seed, and another one is only for checking that the
verdicts stay the same.

With `--trace 0` the run measures the end-to-end metrics: it makes passes
until `--seconds` would be exceeded by one more (at least one pass), and
times the set-up in fresh processes before each pass.  Every timing is
corrected for the host's speed, which a probe measures throughout the run
(see `speed.py`).  With `--trace 1` it makes one
untraced and two traced passes, checks that both traced passes give the same
counts and the untraced verdicts, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
status is 0 only when every verdict is correct.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import COUNTERS, SPAN_NAMES, Tracer
from speed import WINDOW_S, Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES_PER_PASS = 6
TRACED_PASSES = 2
SHORT_INPUT_S = 1.0

# Child process for set-up time: import polargrad and parse the inputs.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import polargrad
for text, names in {inputs!r}:
    polargrad.parse_poly(text, names)
print(time.perf_counter() - t0)
"""


def import_polargrad():
    """Import polargrad from this checkout's src, and nowhere else."""
    package = SRC / "polargrad"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polargrad sources at {package}")
    sys.path.insert(0, str(SRC))
    import polargrad

    if Path(polargrad.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: polargrad imported from {polargrad.__file__}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_seconds(entries) -> tuple[float, float, float]:
    """Import polargrad and parse the inputs in a fresh process: (start and
    end of the child process in this process's clock, the child's own
    seconds from before the import to after the parse)."""
    code = SETUP_CODE.format(src=str(SRC), inputs=[(e.text, e.vars) for e in entries])
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return start, time.perf_counter(), float(done.stdout.strip().splitlines()[-1])


def timed_run(wl, entries, seed: int, seconds: int):
    """End-to-end metrics with tracing off.  Passes run while one more fits
    in `seconds` (at least one).  Set-up samples are taken before each pass,
    and after each pass, and in the time left at the end, the inputs shorter
    than SHORT_INPUT_S run once more each, so their medians rest on more
    samples.  Every timing is corrected for the host's speed at the time it
    was taken (`speed.Speedometer`); the wall times are printed beside."""
    speed = Speedometer()
    with speed.running():
        wl.warm_up(seed)  # also the first speed probes
        start = time.perf_counter()
        setup: list[tuple[float, float, float]] = []
        passes: list[list] = []  # the outcomes of each pass, in input order
        runs: list[list] = [[] for _ in entries]  # every outcome of each input

        def medians() -> list[float]:
            return [statistics.median(o.seconds for o in r) for r in runs]

        def left() -> float:
            return seconds - (time.perf_counter() - start)

        def rerun(short: list[int]) -> None:
            for i in short:
                runs[i].append(wl.run_input(entries[i], seed))

        while True:
            setup += [setup_seconds(entries) for _ in range(SETUP_SAMPLES_PER_PASS)]
            _, outcomes = wl.run_pass(entries, seed)
            passes.append(outcomes)
            for r, outcome in zip(runs, outcomes):
                r.append(outcome)
            current = medians()
            short = [i for i, m in enumerate(current) if m < SHORT_INPUT_S]
            cycle = sum(current[i] for i in short)
            pass_wall = statistics.median(sum(o.seconds for o in p) for p in passes)
            if left() < pass_wall + cycle:
                break
            rerun(short)
        while short and left() >= cycle:
            rerun(short)
        time.sleep(WINDOW_S)  # probes after the last timing

    def corrected(outcome) -> float:
        return speed.corrected(outcome.start, outcome.seconds)

    problems = [
        f"{o.name}: result differs from its first run"
        for r in runs for o in r[1:] if o.result != r[0].result
    ]
    per_input = [statistics.median(corrected(o) for o in r) for r in runs]
    pass_s = [sum(corrected(o) for o in p) for p in passes]
    pass_wall = [sum(o.seconds for o in p) for p in passes]
    setup_s = [s / speed.factor(a, b) for a, b, s in setup]
    factors = [speed.factor(o.start, o.start + o.seconds) for p in passes for o in p]
    attempted = sum(len(r) for r in runs)
    failed = sum(not o.ok for r in runs for o in r)
    q1, _, q3 = statistics.quantiles(pass_s, n=4) if len(pass_s) > 1 else (pass_s[0],) * 3
    lines = [f"{'input':<30} {'runs':>4} {'median_s':>9}  verdict"]
    for entry, med, r in zip(entries, per_input, runs):
        errors = [o.error for o in r if not o.ok]
        lines.append(f"{entry.name:<30} {len(r):>4} {med:>9.4f}  {errors[0] if errors else 'ok'}")
    lines += [
        f"pass_s: {len(pass_s)} passes, median {statistics.median(pass_s):.4f} s, "
        f"quartiles {q1:.4f} .. {q3:.4f} s; passes " + " ".join(f"{w:.4f}" for w in pass_s),
        "pass wall time, uncorrected: " + " ".join(f"{w:.4f}" for w in pass_wall) + " s",
        f"host speed factor over the passes: {min(factors):.3f} .. {max(factors):.3f} "
        f"from {len(speed.probe_s)} probes",
        f"setup_s: {len(setup_s)} samples, " + " ".join(f"{s:.4f}" for s in setup_s),
        f"fail_ratio: {failed}/{attempted} input runs failed",
    ]
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "pass_s": metric(statistics.median(pass_s), "s"),
        "input_geomean_s": metric(
            math.exp(statistics.fmean(math.log(m) for m in per_input)), "s"
        ),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, problems, metrics, lines


def traced_run(wl, entries, seed: int):
    """Per-layer metrics: one untraced pass, then traced passes over the
    same inputs and seed, which must repeat every count exactly."""
    wl.warm_up(seed)
    untraced_wall, reference = wl.run_pass(entries, seed)
    tracers: list[Tracer] = []
    walls: list[float] = []
    passes = [reference]
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        with tracer.install():
            wall, outcomes = wl.run_pass(entries, seed)
        tracers.append(tracer)
        walls.append(wall)
        passes.append(outcomes)
    problems = [
        f"traced pass {k}: {o.name} result differs from the untraced pass"
        for k, outcomes in enumerate(passes[1:], 1)
        for r, o in zip(reference, outcomes) if o.result != r.result
    ]
    counts = [t.count_snapshot() for t in tracers]
    problems += [
        f"traced pass {k}: {key} = {snap[key]}, traced pass 1 gave {value}"
        for k, snap in enumerate(counts[1:], 2)
        for key, value in counts[0].items() if snap[key] != value
    ]
    attempted = sum(len(p) for p in passes)
    failed = sum(not o.ok for p in passes for o in p)

    traced_wall = statistics.median(walls)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(counts[0][f"{name}.calls"], "count")
        metrics[f"{name}.total_s"] = metric(statistics.median(t.total_s[name] for t in tracers), "s")
        metrics[f"{name}.self_s"] = metric(statistics.median(t.self_s[name] for t in tracers), "s")
    for key, unit in COUNTERS.items():
        metrics[key] = metric(counts[0][key], unit)
    reductions = counts[0]["groebner.normal_form.buchberger_reductions"]
    zeros = counts[0]["groebner.normal_form.buchberger_zero_reductions"]
    metrics["groebner.normal_form.zero_ratio"] = metric(zeros / reductions if reductions else 0.0, "ratio")
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")

    lines = [
        f"untraced pass {untraced_wall:.4f} s, traced pass median {traced_wall:.4f} s",
        f"{'span':<46} {'calls':>8} {'total_s':>9} {'self_s':>9} {'total%':>7}",
    ]
    for name in sorted(SPAN_NAMES, key=lambda n: -metrics[f"{n}.total_s"]["value"]):
        total = metrics[f"{name}.total_s"]["value"]
        lines.append(
            f"{name:<46} {metrics[f'{name}.calls']['value']:>8} {total:>9.4f} "
            f"{metrics[f'{name}.self_s']['value']:>9.4f} {100 * total / traced_wall:>6.1f}%"
        )
    for key in [*COUNTERS, "groebner.normal_form.zero_ratio", "trace.overhead_s"]:
        lines.append(f"{key:<46} {metrics[key]['value']}")
    return attempted, failed, problems, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--analysis-seed", type=int, default=1)
    args = ap.parse_args(argv)

    import_polargrad()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    entries = wl.WORKLOADS[args.workload]
    entries = random.Random(args.seed).sample(entries, len(entries))
    if args.trace:
        attempted, failed, problems, metrics, lines = traced_run(wl, entries, args.analysis_seed)
    else:
        attempted, failed, problems, metrics, lines = timed_run(
            wl, entries, args.analysis_seed, args.seconds
        )
    for line in lines + problems:
        print(line)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
