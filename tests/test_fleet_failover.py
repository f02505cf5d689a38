"""Shard-loss failover: kill schedules, re-routing, exactly-once accounting."""

import numpy as np
import pytest

from repro.core import ColorMapping
from repro.fleet import (
    FleetCoordinator,
    ShardKill,
    heavy_tailed_tenants,
    make_router,
)
from repro.memory import ParallelMemorySystem
from repro.obs import EventRecorder
from repro.serve import ServeEngine, TemplateMix
from repro.trees import CompleteBinaryTree

WORKLOAD = "subtree:7=1,path:5=1,level:4=1"


def make_shards(n, levels=8, modules=7):
    shards = []
    for _ in range(n):
        tree = CompleteBinaryTree(levels)
        mapping = ColorMapping.for_modules(tree, modules)
        shards.append(
            ServeEngine(ParallelMemorySystem(mapping), policy="greedy-pack")
        )
    return shards


@pytest.fixture
def tree():
    return CompleteBinaryTree(8)


def population(tree, num_tenants=8, rate=6.0, seed=7):
    return heavy_tailed_tenants(tree, num_tenants, WORKLOAD, rate, seed=seed)


# -- ShardKill.parse ---------------------------------------------------------


def test_shard_kill_parse_full_spec():
    kill = ShardKill.parse("2@300")
    assert (kill.shard, kill.cycle) == (2, 300)


def test_shard_kill_parse_bare_cycle_means_shard_zero():
    kill = ShardKill.parse("120")
    assert (kill.shard, kill.cycle) == (0, 120)


@pytest.mark.parametrize("spec", ["", "x@10", "1@y", "1@2@3", "-1@10", "1@-5"])
def test_shard_kill_parse_rejects_garbage(spec):
    with pytest.raises(ValueError):
        ShardKill.parse(spec)


# -- kill validation ---------------------------------------------------------


def test_kill_out_of_range_rejected():
    with pytest.raises(ValueError, match="fleet has 2 shards"):
        FleetCoordinator(make_shards(2), kills=["5@100"])


def test_double_kill_rejected():
    with pytest.raises(ValueError, match="killed twice"):
        FleetCoordinator(make_shards(3), kills=["1@100", "1@200"])


def test_kill_after_run_end_rejected(tree):
    coordinator = FleetCoordinator(make_shards(2), kills=["1@500"])
    with pytest.raises(ValueError, match="never re-enter"):
        coordinator.start(population(tree).clients, 400)


# -- failover behaviour ------------------------------------------------------


def test_kill_reroutes_and_accounts_exactly_once(tree):
    recorder = EventRecorder()
    coordinator = FleetCoordinator(
        make_shards(3), router="least-loaded",
        recorder=recorder, kills=["1@150"],
    )
    report = coordinator.run(population(tree).clients, 300)

    assert report.dead_shards == [1]
    assert report.rerouted > 0
    assert report.rerouted_completed > 0
    assert report.rerouted_completed <= report.rerouted
    # exactly-once: every routed request is completed or shard-shed, never both
    assert report.completed + report.shard_shed == report.routed
    assert report.arrivals == report.routed + report.quota_shed
    assert report.availability < 1.0

    downs = [e for e in recorder.events if e["ev"] == "shard_down"]
    assert len(downs) == 1
    assert downs[0]["shard"] == 1
    reroutes = [e for e in recorder.events if e["ev"] == "fleet_reroute"]
    assert len(reroutes) == report.rerouted
    assert all(e["source"] == 1 and e["shard"] in (0, 2) for e in reroutes)


def test_dead_shard_takes_no_traffic_after_kill(tree):
    recorder = EventRecorder()
    FleetCoordinator(
        make_shards(2), router="round-robin",
        recorder=recorder, kills=["0@100"],
    ).run(population(tree).clients, 250)
    late_routes = [
        e for e in recorder.events
        if e["ev"] in ("fleet_route", "fleet_reroute") and e["cycle"] >= 100
    ]
    assert late_routes, "traffic should continue after the kill"
    assert all(e["shard"] == 1 for e in late_routes)


def test_killed_fleet_loses_bounded_goodput(tree):
    control = FleetCoordinator(make_shards(3), router="least-loaded").run(
        population(tree).clients, 300
    )
    killed = FleetCoordinator(
        make_shards(3), router="least-loaded", kills=["2@150"]
    ).run(population(tree).clients, 300)
    assert control.availability == 1.0
    assert killed.availability < 1.0
    assert killed.completed < control.completed or killed.shard_shed >= 0
    assert killed.completed + killed.shard_shed == killed.routed


def test_last_shard_dying_with_work_sheds_cleanly(tree):
    # the last shard dying while holding work used to raise mid-run; it now
    # sheds the held work at the fleet edge with exactly-once accounting
    recorder = EventRecorder()
    coordinator = FleetCoordinator(
        make_shards(1), recorder=recorder, kills=["0@50"]
    )
    report = coordinator.run(population(tree, rate=3.0).clients, 100)
    assert report.dead_shards == [0]
    assert report.fleet_shed > 0
    assert (
        report.completed + report.quota_shed + report.shard_shed
        + report.fleet_shed
        == report.arrivals
    )
    sheds = [e for e in recorder.events if e["ev"] == "fleet_shed"]
    assert {e["reason"] for e in sheds} == {"shard-loss", "no-capacity"}


def test_affinity_forgets_assignments_on_shard_down(tree):
    router = make_router("affinity")
    coordinator = FleetCoordinator(make_shards(2), router=router)
    instance = TemplateMix.parse(tree, "path:4=1").sample(
        np.random.default_rng(0)
    )
    homes = {t: router.place(t, instance, coordinator) for t in ("a", "b", "c")}
    dead = homes["a"]
    router.on_shard_down(dead, coordinator)
    assert all(s != dead for s in router.assignments.values())
    survivors = [s for s in (0, 1) if s != dead]
    coordinator._set_health(dead, "dead", 0)
    assert router.place("a", instance, coordinator) in survivors


def test_recorder_meta_includes_fleet_config(tree):
    recorder = EventRecorder()
    FleetCoordinator(
        make_shards(2), router="affinity", recorder=recorder, kills=["1@60"]
    ).run(population(tree).clients, 120)
    meta = recorder.meta
    assert meta["fleet_shards"] == 2
    assert meta["fleet_router"] == "affinity"
    assert meta["fleet_kills"] == [(1, 60)]
