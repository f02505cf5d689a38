"""E22 — self-healing fleet: kill/restart soak with exactly-once recovery.

Four claims about the supervised fleet.  First, with three different
shards killed mid-run and budgeted restarts enabled, every shard rejoins
(>= 3 restarts in the soak) and the fleet-level exactly-once identity
``completed + quota_shed + shard_shed + fleet_shed == arrivals`` survives
every kill/restart cycle — reconciliation against the failover ledger
means nothing executes twice.  Second, two identical supervised runs are
byte-identical (``diff_fleet_reports`` empty).  Third, crashing the whole
fleet mid-run and recovering from the newest fleet checkpoint reproduces
the uninterrupted control exactly — per-shard journals verify the
re-executed suffix record-for-record.  Fourth, restart-enabled goodput
strictly exceeds failover-only goodput under the same kill schedule: a
healed shard earns back the capacity a dead one forfeits.  The quick-scale
experiment checks all four and its rows are pinned; this file adds the
timing of the supervised step loop against plain failover.
"""

from dataclasses import replace

import pytest

from repro.fleet import FleetConfig

CYCLES = 450
# E22's quick-scale fleet: kills at cycles//6, //3, //2; restarts and
# checkpoints every cycles//9
CONFIG = FleetConfig(
    shards=4, router="least-loaded", levels=8, modules=7,
    workload="subtree:7=1,path:5=1,level:4=1", tenants=8, arrival_rate=4.0,
    seed=7, faults=f"drop=0.03@0:{CYCLES},seed=3",
    kill_shard_at=["1@75", "2@150", "3@225"], restart_after=50, checkpoint_every=50,
)


def test_e22_claim_holds(rows_pin):
    from repro.bench.experiments import e22_selfheal

    result = e22_selfheal("quick")
    assert result.holds, str(result)
    rows_pin(result)


@pytest.mark.parametrize("mode", ["failover", "selfheal"])
def test_bench_supervised_step_loop(benchmark, tmp_path, mode):
    selfheal = mode == "selfheal"
    config = CONFIG if selfheal else replace(CONFIG, restart_after=None)

    def run():
        coordinator, population, _, factory = config.build()
        state_dir = tmp_path / "bench" if selfheal else None
        supervisor = config.supervise(coordinator, factory, state_dir)
        return supervisor.serve(population.clients, CYCLES)

    benchmark(run)
