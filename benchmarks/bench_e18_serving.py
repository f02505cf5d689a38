"""E18 — online serving: conflict-aware batching beats FIFO at equal load.

The serving engine realizes the paper's composite bound *online*: packing up
to ``c`` disjoint elementary requests per batch keeps every batch within
``c - 1 + k`` conflicts (Theorem on composite templates), so the array
serves strictly more requests per round than one-at-a-time FIFO dispatch.
This file pins that claim across load levels and times the three policies.
"""

from dataclasses import replace

import pytest

from repro.serve import EngineConfig, PoissonClient, TemplateMix, batch_conflict_bound
from repro.trees import CompleteBinaryTree

LOAD_LEVELS = (0.2, 0.4, 0.6)
NUM_CLIENTS = 4
MAX_CYCLES = 1500
# E18's array: COLOR at max parallelism (M=15, N=11, k=3), c = 4
CONFIG = EngineConfig(
    levels=11, modules=15, workload="subtree:15=1,path:11=1,level:7=1", batch_components=4
)
MIX = TemplateMix.parse(CompleteBinaryTree(CONFIG.levels), CONFIG.workload)


def test_e18_claim_holds(rows_pin):
    from repro.bench.experiments import e18_online_serving

    result = e18_online_serving("quick")
    assert result.holds, str(result)
    rows_pin(result)


def _run(policy, rate, cycles=MAX_CYCLES):
    """A config-built engine serving E18's own client seeds (100+i)."""
    engine = replace(CONFIG, policy=policy).build()[0]
    clients = [
        PoissonClient(i, MIX, rate / NUM_CLIENTS, seed=100 + i) for i in range(NUM_CLIENTS)
    ]
    return engine.run(clients, max_cycles=cycles), engine


def test_e18_greedy_pack_beats_fifo_across_loads():
    """At every offered load the packed policy needs strictly fewer rounds
    per request than FIFO on the same seeded arrival stream."""
    for rate in LOAD_LEVELS:
        fifo, _ = _run("fifo", rate)
        greedy, _ = _run("greedy-pack", rate)
        assert fifo.arrivals == greedy.arrivals, "arrival streams diverged"
        assert greedy.mean_rounds_per_request < fifo.mean_rounds_per_request, (
            f"rate={rate}: greedy-pack {greedy.mean_rounds_per_request:.3f} "
            f"not below fifo {fifo.mean_rounds_per_request:.3f}"
        )


def test_e18_batches_respect_composite_bound():
    """Measured conflicts of every dispatched batch stay within c - 1 + k."""
    for policy in ("greedy-pack", "load-aware"):
        _, engine = _run(policy, rate=0.6)
        tracker, k = engine.tracker, engine.system.mapping.k
        assert tracker.batch_conflicts
        for conflicts, c in zip(tracker.batch_conflicts, tracker.batch_components):
            assert conflicts <= batch_conflict_bound(c, k)
        assert max(tracker.batch_conflicts) <= batch_conflict_bound(
            CONFIG.batch_components, k
        )


def test_e18_packing_improves_sojourns_at_high_load():
    """Near saturation, packing cuts both median and mean sojourn (the
    extreme tail is dominated by rare long batches and stays noisy)."""
    fifo, _ = _run("fifo", rate=0.6)
    greedy, _ = _run("greedy-pack", rate=0.6)
    assert greedy.latency["p50"] < fifo.latency["p50"]
    assert greedy.latency["mean"] < fifo.latency["mean"]


@pytest.mark.parametrize("policy", ["fifo", "greedy-pack", "load-aware"])
def test_bench_serving_policy(benchmark, policy):
    benchmark(lambda: _run(policy, rate=0.4, cycles=500))
