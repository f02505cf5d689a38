"""E21 — fleet: scaling, noisy-neighbour containment, shard-loss failover.

Three claims about the sharded multi-tenant serving fleet.  First, with
load balanced placement the fleet's goodput scales >= 0.8x linear from 1
to 4 shards under a heavy-tailed (Zipf) tenant mix at a shard-saturating
rate.  Second, balance-bounded tenant-affinity routing strictly beats
round-robin on fleet p95 sojourn when one bursty noisy-neighbour tenant
shares the fleet with 23 well-behaved small tenants: affinity walls the
burst into one shard, round-robin sprays it over every queue.  Third,
killing a shard mid-run is survivable — the dead shard's queue re-routes
to survivors, every request is accounted exactly once, and the goodput
loss against the unkilled control is bounded by 25%.  The quick-scale
experiment checks all three and its rows are pinned; this file adds the
scaling claim at the full 600 cycles and times the fleet step loop.
"""

from dataclasses import replace

import pytest

from repro.fleet import FleetConfig

# E21's fleet: 10-level trees, COLOR on 15 modules per shard, greedy-pack
CONFIG = FleetConfig(
    router="least-loaded", levels=10, modules=15,
    workload="subtree:15=1,path:9=1,level:7=1", seed=5,
)


def test_e21_claim_holds(rows_pin):
    from repro.bench.experiments import e21_fleet

    result = e21_fleet("quick")
    assert result.holds, str(result)
    rows_pin(result)


def test_e21_goodput_scales_near_linear():
    """4 shards at 4x the saturating rate complete >= 0.8x of 4x the
    single-shard goodput — the coordinator adds no serial bottleneck."""
    goodput = {}
    for num_shards in (1, 4):
        coordinator, population, _, _ = replace(
            CONFIG, shards=num_shards, tenants=4 * num_shards,
            arrival_rate=1.0 * num_shards,
        ).build()
        goodput[num_shards] = coordinator.run(population.clients, 600).goodput
    assert goodput[4] >= 0.8 * 4 * goodput[1], goodput


@pytest.mark.parametrize("router", ["round-robin", "least-loaded", "affinity"])
def test_bench_fleet_step_loop(benchmark, router):
    config = replace(CONFIG, router=router, tenants=12, arrival_rate=2.0)

    def run():
        coordinator, population, _, _ = config.build()
        return coordinator.run(population.clients, 300)

    benchmark(run)
