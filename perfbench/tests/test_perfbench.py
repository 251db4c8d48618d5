"""Self-tests for the benchmark: span arithmetic, restoring the wrapped
bindings, counting failed verdicts, the host-speed correction, and agreement
of the metric names with BENCHMARK.json.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import polargrad  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from layertrace import Tracer  # noqa: E402
from polargrad.catalog import BY_NAME, CatalogEntry  # noqa: E402

SMALL = (BY_NAME["line-pair"], BY_NAME["square-times-line"], BY_NAME["cremona-triangle"])


def bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "polargrad" or name.startswith("polargrad.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.span("inner", inner)
        tracer.span("inner", inner)

    tracer.span("outer", outer)
    assert tracer.calls["outer"] == 1 and tracer.calls["inner"] == 2
    assert tracer.total_s["outer"] >= 0.05
    assert abs(tracer.total_s["inner"] - tracer.self_s["inner"]) < 1e-9
    assert abs(tracer.self_s["outer"] - (tracer.total_s["outer"] - tracer.total_s["inner"])) < 1e-9
    assert 0.01 <= tracer.self_s["outer"] < 0.03


def test_reentrant_span_counts_total_once():
    tracer = Tracer()

    def recurse(k):
        time.sleep(0.005)
        if k:
            tracer.span("r", recurse, k - 1)

    tracer.span("r", recurse, 2)
    assert tracer.calls["r"] == 3
    assert abs(tracer.total_s["r"] - tracer.self_s["r"]) < 0.005
    assert tracer.total_s["r"] < 0.03


def test_speed_correction_removes_probe_time_and_scales_by_the_probe():
    meter = speed.Speedometer()
    # probes at 0.1 s steps, each 2 ms long; twice the reference probe time
    # before t = 10, the reference time from t = 10 on
    for k in range(200):
        t = 0.1 * k
        meter.starts.append(t)
        meter.ends.append(t + 0.002)
        meter.probe_s.append(2 * speed.REFERENCE_S if t < 10 else speed.REFERENCE_S)
    # 3 s of wall time from t = 2.05: 30 probes inside, 0.06 s of it probing
    assert abs(meter.corrected(2.05, 3.0) - (3.0 - 0.06) / 2) < 1e-9
    assert abs(meter.corrected(14.05, 3.0) - (3.0 - 0.06)) < 1e-9
    # across the change of speed at t = 10: 4.95 s of work before it, at half
    # the reference speed, and 5 s after it, less 100 probes of 2 ms each;
    # only the stretches within WINDOW_S of the change may be misjudged
    before, after = 4.95 - 50 * 0.002, 5.0 - 50 * 0.002
    assert abs(meter.corrected(5.05, 9.95) - (before / 2 + after)) < speed.WINDOW_S / 2
    # a timing with no probe within the window uses the nearest ones
    assert meter.factor(40.0, 40.1) == 1.0


def test_speedometer_probes_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer()
    with meter.running():
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 3 <= len(meter.probe_s) <= 6
    assert meter.starts == sorted(meter.starts)
    assert all(s < e for s, e in zip(meter.starts, meter.ends))


def test_install_rebinds_every_namespace_and_restores():
    before = bindings()
    with Tracer().install():
        for module, attr in (
            ("polargrad.groebner", "buchberger"),  # looked up by Ideal.basis
            ("polargrad.groebner", "normal_form"),
            ("polargrad.hypersurface", "saturate"),  # from .groebner import saturate
            ("polargrad.polar", "intersect"),
            ("polargrad.report", "mu_summary"),
            ("polargrad.catalog", "analyze_polynomial"),
            ("polargrad", "analyze_polynomial"),
        ):
            assert getattr(sys.modules[module], attr) is not before[(module, attr)]
        # one wrapper per function, shared by every namespace
        assert sys.modules["polargrad.hypersurface"].mu_summary is sys.modules["polargrad.polar"].mu_summary
    assert bindings() == before


def test_bindings_restored_after_an_error():
    before = bindings()
    try:
        with Tracer().install():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert bindings() == before


def test_traced_pass_repeats_counts_and_verdicts():
    _, reference = wl.run_pass(SMALL, 1)
    snapshots = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.install():
            _, outcomes = wl.run_pass(SMALL, 1)
        assert [o.result for o in outcomes] == [o.result for o in reference]
        snapshots.append(tracer.count_snapshot())
    assert snapshots[0] == snapshots[1]
    snap = snapshots[0]
    assert snap["report.analyze_polynomial.calls"] == 1
    assert snap["polar.polar_degree_fiber_oracle.calls"] == 3
    assert snap["groebner.buchberger.gf.calls"] > 0
    assert snap["polar.oracle.targets"] >= 9
    assert snap["hypersurface.generic_frame.draws"] >= 2


def test_count_mismatch_between_traced_passes_is_reported(monkeypatch):
    real = Tracer.count_snapshot
    calls = []

    def drifting(self):
        snap = real(self)
        calls.append(snap)
        if len(calls) == 2:
            snap["polar.oracle.targets"] += 1
        return snap

    monkeypatch.setattr(Tracer, "count_snapshot", drifting)
    _, failed, problems, _, _ = run.traced_run(wl, SMALL[:1], 1)
    assert failed == 0
    assert problems == ["traced pass 2: polar.oracle.targets = 4, traced pass 1 gave 3"]


def test_verdicts_do_not_depend_on_the_seed():
    for seed in (1, 2):
        _, outcomes = wl.run_pass(SMALL, seed)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]


def test_wrong_expectation_and_raised_error_are_failures_not_aborts():
    wrong = CatalogEntry(name="wrong", text="x*y", vars=("x", "y"), d_f=2,
                         oracle_only=True, note="deliberately wrong expected value")
    # a non-isolated singular locus makes analyze_polynomial raise
    raises = CatalogEntry(name="raises", text="x^2*y", vars=("x", "y", "z"), d_f=1,
                          note="hypothesis violation")
    _, outcomes = wl.run_pass((wrong, raises, BY_NAME["line-pair"]), 1)
    assert [o.ok for o in outcomes] == [False, False, True]
    assert "expected 2" in outcomes[0].error
    assert outcomes[1].result is None and "HypothesisError" in outcomes[1].error


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    attempted, failed, problems, metrics, _ = run.traced_run(wl, SMALL[:2], 1)
    assert (attempted, failed, problems) == (6, 0, [])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    attempted, failed, problems, metrics, _ = run.timed_run(wl, SMALL[:2], 1, 0)
    assert (attempted, failed, problems) == (2, 0, [])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    assert all(v["value"] > 0 for v in metrics.values())


def test_workloads_cover_the_catalog_once():
    names = [e.name for entries in wl.WORKLOADS.values() for e in entries]
    catalog = {e.name for e in polargrad.catalog.CATALOG}
    assert catalog <= set(names)
    assert len(names) == len(set(names))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
