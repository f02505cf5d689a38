"""Low-overhead wall-clock span profiling for the simulator hot loops.

The event tracer (:mod:`repro.obs.events`) records *simulated* cycles; this
module records the *real* seconds they cost — the constant factors the
paper's cost model abstracts away.  Two profiler types share one duck-typed
interface, mirroring the recorder design:

* :class:`NullProfiler` — the default everywhere.  ``enabled`` is ``False``,
  :meth:`~NullProfiler.span` always returns the shared :data:`NULL_SPAN`
  singleton (no allocation, no clock read), so uninstrumented code pays two
  no-op method calls per span and nothing else.
* :class:`PerfProfiler` — accumulates per-span wall time and call counts
  plus named counters, and derives throughput scalars (cycles/sec,
  requests/sec, events/sec) over the run's wall clock.

Spans are reusable context managers cached per name::

    prof = PerfProfiler()
    prof.start()
    with prof.span("retire"):
        ...          # wall time accumulates under "retire"
    prof.count("cycles", 1024)
    prof.stop()
    prof.phase_table()   # {"retire": {"calls": 1, "total_s": ..., "self_s": ...}}
    prof.throughput()    # {"wall_time_s": ..., "cycles_per_sec": ..., ...}

**Self-overhead accounting.**  Each enabled span costs two
``perf_counter()`` reads plus a couple of attribute writes.  The first
calibrated profiler in a process measures that cost
(:attr:`PerfProfiler.span_cost_s`, best-of-batches over a throwaway span)
and later ones reuse the measurement; the phase table reports
``self_s = total_s - calls * span_cost_s`` (clamped at zero) next to the
raw ``total_s``, so nested spans and dense instrumentation do not inflate
the recorded phase times.  The instrumented engine loop stays under 5% total
overhead versus the null profiler (pinned by ``tests/test_obs_perf.py``).
"""

from __future__ import annotations

from time import perf_counter

__all__ = [
    "NULL_PROFILER",
    "NULL_SPAN",
    "NullProfiler",
    "PerfProfiler",
    "PerfSpan",
]

#: counter names with a conventional meaning: they become ``<name>_per_sec``
#: throughput scalars (singular spelling) in :meth:`PerfProfiler.throughput`
THROUGHPUT_COUNTERS = ("cycles", "requests", "events")


class _NullSpan:
    """Shared do-nothing span: ``with NULL_SPAN:`` allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NULL_SPAN"


#: the singleton every :meth:`NullProfiler.span` call returns
NULL_SPAN = _NullSpan()


class NullProfiler:
    """Does nothing, as fast as possible.  The disabled default."""

    enabled: bool = False

    def span(self, name: str) -> _NullSpan:
        return NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def phase_table(self) -> dict:
        return {}

    def throughput(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: process-wide shared null profiler; instrumented code holds a reference
NULL_PROFILER = NullProfiler()


class PerfSpan:
    """One named accumulator: ``with span: ...`` adds the elapsed wall time.

    Reusable but not reentrant — the engine's phase spans never nest with
    themselves.  Distinct spans nest freely (the parent's total then
    *includes* the child's; the phase table's ``self_s`` column corrects
    only for span bookkeeping cost, not for nesting).
    """

    __slots__ = ("name", "calls", "total_s", "_t0")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "PerfSpan":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.total_s += perf_counter() - self._t0
        self.calls += 1
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PerfSpan({self.name!r}, calls={self.calls}, total_s={self.total_s:.6f})"


def measure_span_cost(samples: int = 4096, batches: int = 5) -> float:
    """Per-span cost of an enabled no-op span (best of ``batches``).

    Best-of keeps scheduler noise out of the calibration — an overestimated
    span cost would make ``self_s`` under-report real work.
    """
    probe = PerfSpan("calibrate")
    best = float("inf")
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(samples):
            with probe:
                pass
        best = min(best, perf_counter() - t0)
    return best / samples


#: the process's measured span cost, filled by the first calibrated profiler
_calibrated_span_cost_s: float | None = None


def _calibrated_span_cost() -> float:
    """:func:`measure_span_cost`, measured once per process and then reused."""
    global _calibrated_span_cost_s
    if _calibrated_span_cost_s is None:
        _calibrated_span_cost_s = measure_span_cost()
    return _calibrated_span_cost_s


class PerfProfiler(NullProfiler):
    """Accumulates span wall times, counters, and run throughput.

    Use one profiler per run: :meth:`start` / :meth:`stop` bound the run's
    wall clock (tolerant of repeated calls — ``stop`` without a matching
    ``start`` is a no-op), spans and counters accumulate in between.

    ``calibrate=False`` skips the span-cost measurement (``span_cost_s`` is
    then 0 and ``self_s == total_s``); useful in tests that construct many
    profilers.  Otherwise the process's first calibrated profiler measures
    the cost and later ones reuse it.
    """

    enabled = True

    def __init__(self, calibrate: bool = True):
        self._spans: dict[str, PerfSpan] = {}
        self.counters: dict[str, int] = {}
        self.span_cost_s = _calibrated_span_cost() if calibrate else 0.0
        self.wall_time_s = 0.0
        self._wall_t0: float | None = None

    # -- instrumentation interface (called from the hot loops) ----------------

    def span(self, name: str) -> PerfSpan:
        span = self._spans.get(name)
        if span is None:
            span = PerfSpan(name)
            self._spans[name] = span
        return span

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def start(self) -> None:
        """Open the run's wall clock (idempotent while already running)."""
        if self._wall_t0 is None:
            self._wall_t0 = perf_counter()

    def stop(self) -> None:
        """Close the run's wall clock, accumulating into ``wall_time_s``."""
        if self._wall_t0 is not None:
            self.wall_time_s += perf_counter() - self._wall_t0
            self._wall_t0 = None

    # -- reporting -------------------------------------------------------------

    @property
    def overhead_s(self) -> float:
        """Estimated bookkeeping cost of every span entered so far."""
        return self.span_cost_s * sum(s.calls for s in self._spans.values())

    def phase_table(self) -> dict[str, dict]:
        """Per-span ``{"calls", "total_s", "self_s"}`` keyed by span name.

        ``self_s`` subtracts the measured per-span bookkeeping cost
        (``calls * span_cost_s``, clamped at zero) from the raw total.
        """
        return {
            name: {
                "calls": span.calls,
                "total_s": span.total_s,
                "self_s": max(0.0, span.total_s - span.calls * self.span_cost_s),
            }
            for name, span in sorted(self._spans.items())
        }

    def throughput(self) -> dict[str, float]:
        """Run-level scalars: wall time plus ``<counter>_per_sec`` rates.

        Rates are computed for the conventional counters in
        :data:`THROUGHPUT_COUNTERS` (0.0 when the wall clock never ran) so
        the artifact schema is stable even for scenarios that do not serve
        requests or record events.
        """
        wall = self.wall_time_s
        out = {"wall_time_s": wall}
        for name in THROUGHPUT_COUNTERS:
            n = self.counters.get(name, 0)
            out[f"{name}_per_sec"] = n / wall if wall > 0 else 0.0
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PerfProfiler(spans={len(self._spans)}, wall_time_s="
            f"{self.wall_time_s:.6f})"
        )
