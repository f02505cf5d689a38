"""E19 — resilience: conflict-aware repair + retry beats oblivious remap.

Two claims under fault injection.  First, when modules die, recoloring
their nodes greedily against the COLOR structure (``ColorRepairMapping``)
costs strictly fewer worst-case S(K)+P(N) conflicts than round-robin
redistribution (``RemappedMapping``).  Second, serving through a timed
:class:`FaultSchedule` with the repair mapping and the retry ladder
(timeout -> retry -> degrade -> shed) achieves strictly higher goodput
than oblivious-remap serving without retries on the same seeded arrivals.
This file pins both halves and times the fault-injected serving loop.
"""

import pytest

from repro.core import ColorMapping
from repro.memory import repair_comparison
from repro.serve import EngineConfig, PoissonClient, TemplateMix
from repro.trees import CompleteBinaryTree

CYCLES = 800
FAULT_SPEC = (
    "fail=3@40:240,fail=9@120:320,fail=5@300:500,fail=12@420:620,"
    f"drop=0.05@0:{CYCLES},seed=7"
)
TREE = CompleteBinaryTree(12)
MIX = TemplateMix.parse(TREE, "composite:21x3=2,subtree:15=1,path:11=1")


def test_e19_claim_holds(rows_pin):
    from repro.bench.experiments import e19_resilience

    result = e19_resilience("quick")
    assert result.holds, str(result)
    rows_pin(result)


def _run(repair, retry, cycles=CYCLES):
    """A config-built engine (COLOR, M=15) under the fault schedule, serving
    E19's one client at seed 11."""
    engine = EngineConfig(
        levels=TREE.num_levels, modules=15, faults=FAULT_SPEC, repair=repair,
        retry_timeout=16 if retry else None, max_retries=2,
    ).build()[0]
    clients = [PoissonClient(0, MIX, rate=0.35, seed=11)]
    return engine.run(clients, max_cycles=cycles, drain_limit=50_000)


def test_e19_repair_strictly_beats_oblivious_remap():
    """For growing failure sets, conflict-aware recoloring always costs
    fewer worst-case S(K)+P(N) conflicts than the round-robin remap."""
    mapping = ColorMapping.max_parallelism(TREE, 4)  # M=15, N=11, k=3
    for failed in ({2}, {0, 7}, {5, 9, 13}):
        comp = repair_comparison(mapping, failed)
        assert comp["repair"]["total"] < comp["oblivious"]["total"], comp
        # the intact mapping is conflict-free, so repair is near-optimal
        assert comp["intact"]["total"] == 0


def test_e19_retry_plus_repair_beats_no_retry_goodput():
    """Same schedule, same seeded arrivals: the resilient configuration
    completes the offered load at strictly higher goodput."""
    resilient = _run(repair="color", retry=True)
    oblivious = _run(repair="oblivious", retry=False)
    assert resilient.arrivals == oblivious.arrivals, "arrival streams diverged"
    assert resilient.goodput > oblivious.goodput
    assert resilient.retries > 0, "no failure ever landed mid-batch"
    assert resilient.completed == resilient.admitted, "requests were lost"


def test_e19_availability_reflects_schedule():
    """The report's availability matches the schedule's failed-module-cycles
    over the arrival window (drain cycles shift it only slightly)."""
    report = _run(repair="color", retry=True)
    assert 0.90 < report.availability < 1.0
    # 4 windows x 200 cycles on 15 modules over >= 800 cycles: <= ~6.7% down
    assert report.availability >= 1.0 - (4 * 200) / (15 * CYCLES)


@pytest.mark.parametrize("repair", ["none", "oblivious", "color"])
def test_bench_fault_injected_serving(benchmark, repair):
    benchmark(lambda: _run(repair=repair, retry=True, cycles=400))
