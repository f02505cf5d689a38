"""Metric declarations and the small statistics the e2e benchmark reports.

One table names every end-to-end metric with its unit, direction and
worsen bound; ``run.py`` prints from it, ``compare.py`` judges with it and
``BENCHMARK.json`` lists, with the same bounds, the ones its one-line result
carries.  Host-time metrics (measured in seconds of the machine running the
simulator) carry a relative bound.  Simulated metrics (what the modelled
parallel memory would do) are deterministic for a seed, so two runs of one
seed must agree on them exactly.

This module imports nothing from ``repro``, so ``compare.py`` runs without
the package on the path.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = ["E2E_METRICS", "LAYER_METRICS", "Metric", "quartiles"]


@dataclass(frozen=True)
class Metric:
    """One reported number.

    ``bound`` is the share of the parent's median by which the metric may
    worsen before a change counts as a regression.  ``exact`` metrics are
    simulated: on one seed they must repeat bit for bit.
    """

    name: str
    unit: str
    better: str = "lower"
    bound: float = 0.0
    exact: bool = False


#: ``items_per_s`` and the ``step_*`` percentiles are medians over a run's
#: repeats.  The ``best_`` ones take each step at the fastest of its
#: repeats: on a shared host only they are steady enough to compare runs of
#: different seeds made minutes apart (README.md, *Measured steadiness*),
#: and their wider bound covers the seed-to-seed spread they keep.  The
#: p99 falls among the checkpoint ticks of the durable workloads (one tick
#: in 50), whose host time varies most, hence the widest bound.
E2E_METRICS: tuple[Metric, ...] = (
    Metric("setup_s", "s", bound=0.25),
    Metric("items_per_s", "items/s", better="higher", bound=0.10),
    Metric("step_p50_us", "us", bound=0.10),
    Metric("step_p99_us", "us", bound=0.10),
    Metric("best_items_per_s", "items/s", better="higher", bound=0.20),
    Metric("best_step_p50_us", "us", bound=0.20),
    Metric("best_step_p99_us", "us", bound=0.25),
    Metric("peak_rss_mb", "MB", bound=0.05),
    Metric("sim_cycles", "cycles", exact=True),
    Metric("conflicts_per_access", "conflicts", exact=True),
    Metric("rounds_per_request", "rounds", exact=True),
    Metric("sojourn_p50_cycles", "cycles", exact=True),
    Metric("sojourn_p99_cycles", "cycles", exact=True),
    Metric("failed_share", "ratio", exact=True),
)


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better=better)


#: per-layer metrics from the traced run.  Span host time is reported as
#: ``self_share``: the layer's self time over the traced run's timed wall
#: (``self_s`` sits beside it in the results file and the trace table).  A
#: layer a workload never enters reads 0 there.
LAYER_METRICS: tuple[Metric, ...] = (
    _layer("core.colors_of.calls", "count"),
    _layer("core.colors_of.self_share", "ratio"),
    _layer("core.color_array.build_s", "s"),
    _layer("memory.access.calls", "count"),
    _layer("memory.access.self_share", "ratio"),
    _layer("memory.module_step.calls", "count"),
    _layer("memory.module_step.useful_ratio", "ratio", better="higher"),
    _layer("memory.items_served", "count", better="higher"),
    _layer("memory.advance_faults.self_share", "ratio"),
    _layer("memory.drops", "count"),
    _layer("serve.clients.poll.calls", "count"),
    _layer("serve.clients.poll.self_share", "ratio"),
    _layer("serve.admission.offer.self_share", "ratio"),
    _layer("serve.admission.admit_waiting.self_share", "ratio"),
    _layer("serve.admission.wait_p50_cycles", "cycles"),
    _layer("serve.admission.wait_p99_cycles", "cycles"),
    _layer("serve.batching.form.calls", "count"),
    _layer("serve.batching.form.self_share", "ratio"),
    _layer("serve.batching.requests_per_batch", "requests", better="higher"),
    _layer("serve.batching.conflicts_per_batch", "conflicts"),
    _layer("serve.engine.step.self_share", "ratio"),
    _layer("serve.engine.busy_cycle_ratio", "ratio", better="higher"),
    _layer("serve.durability.journal.records", "count"),
    _layer("serve.durability.journal.self_share", "ratio"),
    _layer("serve.durability.journal.bytes", "bytes"),
    _layer("serve.durability.snapshot.calls", "count"),
    _layer("serve.durability.snapshot.self_share", "ratio"),
    _layer("serve.durability.snapshot.bytes_mean", "bytes"),
    _layer("serve.retry.timeouts", "count"),
    _layer("serve.retry.retries", "count"),
    _layer("host.tick.self_share", "ratio"),
    _layer("fleet.router.place.calls", "count"),
    _layer("fleet.router.place.self_share", "ratio"),
    _layer("fleet.coordinator.step.self_share", "ratio"),
    _layer("fleet.supervisor.fleet_snapshot.calls", "count"),
    _layer("fleet.supervisor.fleet_snapshot.self_share", "ratio"),
    _layer("fleet.supervisor.fleet_snapshot.bytes_mean", "bytes"),
    _layer("fleet.supervisor.restore.self_share", "ratio"),
    _layer("fleet.rerouted", "count"),
    _layer("fleet.restarts", "count"),
    _layer("fleet.availability", "ratio", better="higher"),
    _layer("trace.unattributed_share", "ratio"),
    _layer("trace.overhead", "ratio"),
)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
