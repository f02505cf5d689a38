"""The span profiler: accumulation, null-path cost, and the overhead bound.

Pins the three contracts :mod:`repro.obs.perf` makes:

* spans and counters accumulate correctly and the derived throughput
  scalars have a stable schema (0.0 rates when the wall clock never ran);
* the disabled path is free — ``NullProfiler.span`` always returns the
  shared ``NULL_SPAN`` singleton and allocates nothing, so instrumented
  code with the default profiler behaves exactly as before;
* the enabled path is cheap — a profiled serving run stays within 5% of
  the identical run under the null profiler (best-of-N, fixed seeds), and
  the engine populates the report's wall-clock fields from it.
"""

import time
import tracemalloc

import pytest

from repro.core import ColorMapping
from repro.memory import ParallelMemorySystem
from repro.obs import NULL_PROFILER, NullProfiler, PerfProfiler
from repro.obs.perf import NULL_SPAN, PerfSpan, measure_span_cost
from repro.serve import PoissonClient, ServeEngine, TemplateMix
from repro.trees import CompleteBinaryTree


class TestPerfSpan:
    def test_accumulates_time_and_calls(self):
        span = PerfSpan("work")
        for _ in range(3):
            with span:
                time.sleep(0.001)
        assert span.calls == 3
        assert span.total_s >= 0.003

    def test_exception_still_accounted(self):
        span = PerfSpan("work")
        with pytest.raises(RuntimeError):
            with span:
                raise RuntimeError("boom")
        assert span.calls == 1


class TestNullProfiler:
    def test_span_is_shared_singleton(self):
        prof = NullProfiler()
        assert prof.span("a") is NULL_SPAN
        assert prof.span("b") is NULL_SPAN
        assert NULL_PROFILER.span("a") is NULL_SPAN
        assert not prof.enabled

    def test_empty_reporting_surface(self):
        prof = NullProfiler()
        prof.count("cycles", 10)
        prof.start()
        prof.stop()
        assert prof.phase_table() == {}
        assert prof.throughput() == {}

    def test_disabled_span_allocates_nothing(self):
        import repro.obs.perf as perf_mod

        span = NULL_PROFILER.span("hot")
        with span:  # warm up any lazy interpreter state
            pass
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(1000):
                with NULL_PROFILER.span("hot"):
                    pass
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # the loop's own iterator allocates; the profiler module must not
        grown = [
            diff
            for diff in after.compare_to(before, "lineno")
            if diff.size_diff > 0
            and diff.traceback[0].filename == perf_mod.__file__
        ]
        assert grown == []
        assert NULL_PROFILER.span("hot") is span


class TestPerfProfiler:
    def test_span_cache_returns_same_object(self):
        prof = PerfProfiler(calibrate=False)
        assert prof.span("x") is prof.span("x")
        assert prof.span("x") is not prof.span("y")

    def test_counters_accumulate(self):
        prof = PerfProfiler(calibrate=False)
        prof.count("cycles", 10)
        prof.count("cycles", 5)
        prof.count("requests")
        assert prof.counters == {"cycles": 15, "requests": 1}

    def test_throughput_schema_is_stable_without_wall_clock(self):
        prof = PerfProfiler(calibrate=False)
        prof.count("cycles", 100)
        t = prof.throughput()
        assert t == {
            "wall_time_s": 0.0,
            "cycles_per_sec": 0.0,
            "requests_per_sec": 0.0,
            "events_per_sec": 0.0,
        }

    def test_throughput_rates(self):
        prof = PerfProfiler(calibrate=False)
        prof.start()
        time.sleep(0.002)
        prof.stop()
        prof.count("cycles", 100)
        t = prof.throughput()
        assert t["wall_time_s"] >= 0.002
        assert t["cycles_per_sec"] == pytest.approx(100 / t["wall_time_s"])

    def test_start_stop_idempotent(self):
        prof = PerfProfiler(calibrate=False)
        prof.stop()  # stop without start is a no-op
        assert prof.wall_time_s == 0.0
        prof.start()
        prof.start()
        prof.stop()
        prof.stop()
        assert prof.wall_time_s > 0.0

    def test_phase_table_self_time_clamped(self):
        prof = PerfProfiler()  # calibrated: span_cost_s > 0
        assert prof.span_cost_s > 0.0
        span = prof.span("tight")
        for _ in range(100):
            with span:
                pass
        table = prof.phase_table()
        row = table["tight"]
        assert row["calls"] == 100
        assert 0.0 <= row["self_s"] <= row["total_s"]
        assert prof.overhead_s > 0.0

    def test_measure_span_cost_positive(self):
        assert measure_span_cost(samples=256, batches=2) > 0.0

    def test_calibration_runs_once_per_process(self, monkeypatch):
        import repro.obs.perf as perf_mod

        calls = []

        def counted():
            calls.append(1)
            return 1e-7

        monkeypatch.setattr(perf_mod, "_calibrated_span_cost_s", None)
        monkeypatch.setattr(perf_mod, "measure_span_cost", counted)
        first, second = PerfProfiler(), PerfProfiler()
        assert len(calls) == 1
        assert first.span_cost_s == second.span_cost_s == 1e-7
        assert PerfProfiler(calibrate=False).span_cost_s == 0.0
        assert len(calls) == 1


# -- engine integration --------------------------------------------------------

CYCLES = 500


def _run_serve(profiler):
    # heavy enough that real per-cycle work dominates the fixed four
    # clock-read pairs per cycle (the span cost is host-dependent)
    tree = CompleteBinaryTree(12)
    mapping = ColorMapping.for_modules(tree, 31)
    pms = ParallelMemorySystem(mapping, profiler=profiler)
    engine = ServeEngine(pms, policy="greedy-pack", profiler=profiler)
    mix = TemplateMix.parse(tree, "subtree:15=1,path:11=1,level:7=1")
    clients = [PoissonClient(i, mix, 0.15, seed=i) for i in range(4)]
    t0 = time.perf_counter()
    report = engine.run(clients, max_cycles=CYCLES)
    return report, time.perf_counter() - t0


class TestEngineIntegration:
    def test_profiled_run_populates_wall_fields(self):
        prof = PerfProfiler(calibrate=False)
        report, _ = _run_serve(prof)
        assert report.wall_time_s > 0.0
        assert report.cycles_per_sec > 0.0
        assert report.requests_per_sec > 0.0
        phases = prof.phase_table()
        assert {"retire", "admit", "dispatch", "service"} <= set(phases)
        assert all(row["calls"] > 0 for row in phases.values())
        assert prof.counters["cycles"] >= CYCLES
        assert prof.counters["requests"] == report.completed

    def test_unprofiled_run_reports_zero_wall_fields(self):
        report, _ = _run_serve(None)
        assert report.wall_time_s == 0.0
        assert report.cycles_per_sec == 0.0
        assert report.requests_per_sec == 0.0
        # and the report stays silent about them (CI diffs its text output)
        assert "wall clock" not in str(report)

    def test_profiled_run_matches_unprofiled_results(self):
        base, _ = _run_serve(None)
        profiled, _ = _run_serve(PerfProfiler(calibrate=False))
        assert profiled.completed == base.completed
        assert profiled.cycles == base.cycles
        assert profiled.latency == base.latency

    def test_enabled_overhead_under_5pct_of_wall(self):
        # the 5% claim, pinned from measurement: calibrated per-span cost
        # times the spans actually entered must stay under 5% of the
        # profiled run's wall clock
        prof = PerfProfiler()  # calibrated
        _run_serve(prof)
        assert prof.wall_time_s > 0.0
        assert prof.overhead_s <= 0.05 * prof.wall_time_s, (
            f"span bookkeeping {prof.overhead_s * 1e3:.3f}ms is "
            f"{prof.overhead_s / prof.wall_time_s:.1%} of "
            f"{prof.wall_time_s * 1e3:.1f}ms wall"
        )

    def test_enabled_wall_time_close_to_null(self):
        # end-to-end guard against the instrumented loop growing real work:
        # interleaved best-of-N (run-to-run noise on this ~15ms workload
        # exceeds the true overhead, so the margin is noise, not budget)
        null_t = prof_t = float("inf")
        for _ in range(7):
            null_t = min(null_t, _run_serve(None)[1])
            prof_t = min(prof_t, _run_serve(PerfProfiler(calibrate=False))[1])
        assert prof_t <= null_t * 1.15, (
            f"profiled {prof_t:.4f}s vs null {null_t:.4f}s "
            f"({prof_t / null_t - 1:+.1%} apparent overhead)"
        )
