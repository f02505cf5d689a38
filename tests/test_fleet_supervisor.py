"""FleetSupervisor: per-shard durability, restart/rejoin, the restore
ladder, and deterministic whole-fleet crash recovery."""

import json

import pytest

from repro.core import ColorMapping
from repro.fleet import (
    AffinityRouter,
    FleetCoordinator,
    FleetSupervisor,
    RoundRobinRouter,
    diff_fleet_reports,
    heavy_tailed_tenants,
)
from repro.memory import ParallelMemorySystem
from repro.memory.faults import FaultSchedule, per_shard_schedules
from repro.obs import EventRecorder
from repro.serve import ServeEngine
from repro.serve.durability import DurabilityError, SimulatedCrash
from repro.trees import CompleteBinaryTree

WORKLOAD = "subtree:7=1,path:5=1,level:4=1"
FAULT_SPEC = "drop=0.05@0:300,seed=3"


def build_engine(schedule=None, levels=8, modules=7):
    tree = CompleteBinaryTree(levels)
    mapping = ColorMapping.for_modules(tree, modules)
    system = ParallelMemorySystem(mapping)
    if schedule is not None:
        system.attach_faults(schedule)
    return ServeEngine(system, policy="greedy-pack")


def make_fleet(shards, kills=(), faults=False, recorder=None, router="least-loaded"):
    """A coordinator plus a matching ``factory(shard)`` for restarts."""

    def shard_schedule(shard):
        if not faults:
            return None
        base = FaultSchedule.parse(FAULT_SPEC)
        return per_shard_schedules(base, shards)[shard]

    engines = [build_engine(shard_schedule(i)) for i in range(shards)]
    coordinator = FleetCoordinator(
        engines, router=router, recorder=recorder, kills=list(kills)
    )

    def factory(shard):
        return build_engine(shard_schedule(shard))

    return coordinator, factory


def population(num_tenants=8, rate=4.0, seed=7):
    tree = CompleteBinaryTree(8)
    return heavy_tailed_tenants(tree, num_tenants, WORKLOAD, rate, seed=seed)


def identity_holds(report):
    return (
        report.completed + report.quota_shed + report.shard_shed
        + report.fleet_shed
        == report.arrivals
    )


# -- parameter validation ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"checkpoint_every": 0},
        {"restart_after": 0},
        {"restart_budget": -1},
        {"backoff": 0},
        {"backoff_cap": 0},
        {"retain": 0},
    ],
)
def test_supervisor_rejects_bad_parameters(kwargs):
    coordinator, _ = make_fleet(2)
    with pytest.raises(ValueError):
        FleetSupervisor(coordinator, **kwargs)


def test_recover_without_state_dir_or_manifest(tmp_path):
    coordinator, _ = make_fleet(2)
    with pytest.raises(DurabilityError, match="no state dir"):
        FleetSupervisor(coordinator).recover(population().clients)
    supervisor = FleetSupervisor(coordinator, state_dir=tmp_path / "empty")
    with pytest.raises(DurabilityError, match="no run manifest"):
        supervisor.recover(population().clients)


# -- restart / rejoin ----------------------------------------------------------


def test_restart_rejoins_via_checkpoint_exactly_once(tmp_path):
    recorder = EventRecorder()
    coordinator, factory = make_fleet(3, kills=["1@100"], recorder=recorder)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=tmp_path / "state",
        checkpoint_every=50,
        restart_after=40,
    )
    report = supervisor.serve(population().clients, 300)

    assert report.dead_shards == [1]
    assert report.rejoined == [1]
    assert report.restarts == 1
    assert report.health == ["alive", "alive", "alive"]
    assert identity_holds(report)
    restores = [e for e in recorder.events if e["ev"] == "shard_restore"]
    assert len(restores) == 1
    # the death snapshot is always on disk, so the top rung wins
    assert restores[0]["how"] == "checkpoint"
    rejoins = [e for e in recorder.events if e["ev"] == "shard_rejoin"]
    assert rejoins[0]["reconciled"] == report.reconciled
    # traffic returns to the healed shard
    late = [
        e
        for e in recorder.events
        if e["ev"] == "fleet_route" and e["shard"] == 1
        and e["cycle"] > rejoins[0]["cycle"]
    ]
    assert late, "the rejoined shard should take traffic again"


def test_supervised_runs_are_deterministic(tmp_path):
    reports = []
    for run in ("a", "b"):
        coordinator, factory = make_fleet(3, kills=["1@100"], faults=True)
        supervisor = FleetSupervisor(
            coordinator,
            factory=factory,
            state_dir=tmp_path / run,
            checkpoint_every=50,
            restart_after=40,
        )
        reports.append(supervisor.serve(population().clients, 300))
    assert reports[0].restarts == 1
    assert diff_fleet_reports(reports[0], reports[1]) == []


def test_restarts_beat_pure_failover(tmp_path):
    coordinator, factory = make_fleet(3, kills=["1@100"])
    failover_only = FleetSupervisor(coordinator).serve(
        population().clients, 300
    )
    coordinator2, factory2 = make_fleet(3, kills=["1@100"])
    healed = FleetSupervisor(
        coordinator2,
        factory=factory2,
        state_dir=tmp_path / "state",
        checkpoint_every=50,
        restart_after=40,
    ).serve(population().clients, 300)
    assert failover_only.restarts == 0
    assert healed.restarts == 1
    assert healed.availability > failover_only.availability
    assert identity_holds(failover_only)
    assert identity_holds(healed)


def test_restart_budget_zero_is_pure_failover(tmp_path):
    coordinator, factory = make_fleet(2, kills=["1@80"])
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=tmp_path / "state",
        restart_after=30,
        restart_budget=0,
    )
    report = supervisor.serve(population().clients, 200)
    assert report.restarts == 0
    assert report.health[1] == "dead"
    assert supervisor._pending == {}


def test_backoff_schedule_is_capped_exponential(tmp_path):
    coordinator, factory = make_fleet(2, kills=["1@80"])
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=tmp_path / "state",
        restart_after=10,
        restart_budget=5,
        backoff=3,
        backoff_cap=8,
    )
    supervisor.start(population().clients, 200)
    # pretend two attempts already burned: the third waits
    # restart_after * min(backoff**2, cap) = 10 * 8 cycles
    supervisor._attempts[1] = 2
    while coordinator.health[1] != "dead":
        assert supervisor.step()
    assert supervisor._pending[1] == coordinator._death_cycle[1] + 80
    report = supervisor._loop()
    assert report.restarts == 1
    assert identity_holds(report)


# -- the restore ladder --------------------------------------------------------


def run_to_death(supervisor, coordinator, shard=1, max_cycles=240):
    supervisor.start(population().clients, max_cycles)
    while coordinator.health[shard] != "dead":
        assert supervisor.step()


def test_ladder_falls_back_to_journal_when_snapshots_rot(tmp_path):
    recorder = EventRecorder()
    coordinator, factory = make_fleet(2, kills=["1@80"], recorder=recorder)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=tmp_path / "state",
        checkpoint_every=40,
        restart_after=40,
    )
    run_to_death(supervisor, coordinator)
    for snap in supervisor.stores[1].state_dir.glob("snap-*.json"):
        snap.write_text("garbage\n")
    report = supervisor._loop()

    restores = [e for e in recorder.events if e["ev"] == "shard_restore"]
    assert [e["how"] for e in restores] == ["journal"]
    assert report.restarts == 1
    assert report.health == ["alive", "alive"]
    assert identity_holds(report)


def test_ladder_falls_back_to_fresh_when_journal_rots_too(tmp_path):
    recorder = EventRecorder()
    coordinator, factory = make_fleet(2, kills=["1@80"], recorder=recorder)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=tmp_path / "state",
        checkpoint_every=40,
        restart_after=40,
    )
    run_to_death(supervisor, coordinator)
    for snap in supervisor.stores[1].state_dir.glob("snap-*.json"):
        snap.write_text("garbage\n")
    supervisor.stores[1].journal_path.write_text("not a journal\n")
    report = supervisor._loop()

    restores = [e for e in recorder.events if e["ev"] == "shard_restore"]
    assert [e["how"] for e in restores] == ["fresh"]
    assert report.restarts == 1
    assert identity_holds(report)


def test_ladder_abandons_when_every_rung_fails(tmp_path):
    recorder = EventRecorder()
    coordinator, _ = make_fleet(2, kills=["1@80"], recorder=recorder)

    def broken_factory(shard):
        raise RuntimeError("no spare hardware")

    supervisor = FleetSupervisor(
        coordinator,
        factory=broken_factory,
        state_dir=tmp_path / "state",
        checkpoint_every=40,
        restart_after=30,
        restart_budget=1,
    )
    report = supervisor.serve(population().clients, 200)

    assert report.restarts == 0
    assert report.health[1] == "dead"
    assert report.dead_shards == [1]
    assert identity_holds(report)
    restores = [e for e in recorder.events if e["ev"] == "shard_restore"]
    assert [e["how"] for e in restores] == ["abandoned"]
    states = [
        (e["previous"], e["state"])
        for e in recorder.events
        if e["ev"] == "shard_state" and e["shard"] == 1
    ]
    assert states[-2:] == [("dead", "restoring"), ("restoring", "dead")]


@pytest.mark.parametrize("seed", [1, 5])
def test_soak_all_shards_die_and_heal_never_raises(tmp_path, seed):
    coordinator, factory = make_fleet(2, kills=["0@60", "1@90"])
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=tmp_path / f"s{seed}",
        checkpoint_every=30,
        restart_after=50,
    )
    report = supervisor.serve(population(seed=seed).clients, 200)
    # both shards die (the fleet is briefly at zero capacity), both heal
    assert report.dead_shards == [0, 1]
    assert report.restarts == 2
    assert sorted(report.rejoined) == [0, 1]
    assert report.fleet_shed > 0
    assert identity_holds(report)


# -- whole-fleet crash recovery ------------------------------------------------


def test_whole_fleet_crash_recovery_is_deterministic(tmp_path):
    def build(run, crash_at=None):
        coordinator, factory = make_fleet(3, kills=["1@100"], faults=True)
        supervisor = FleetSupervisor(
            coordinator,
            factory=factory,
            state_dir=tmp_path / run,
            checkpoint_every=50,
            restart_after=40,
            crash_at=crash_at,
        )
        return supervisor

    control = build("control").serve(population().clients, 300)

    with pytest.raises(SimulatedCrash):
        build("crashed", crash_at=220).serve(population().clients, 300)
    recovered = build("crashed").recover(population().clients)

    assert recovered.restarts == control.restarts == 1
    assert diff_fleet_reports(control, recovered) == []


def test_recover_falls_back_past_a_torn_fleet_snapshot(tmp_path):
    with pytest.raises(SimulatedCrash):
        coordinator, factory = make_fleet(2, faults=False)
        FleetSupervisor(
            coordinator,
            factory=factory,
            state_dir=tmp_path / "state",
            checkpoint_every=40,
            crash_at=130,
        ).serve(population().clients, 200)
    snaps = sorted((tmp_path / "state").glob("fleet-*.json"))
    # tear the newest boundary: recovery must fall back to the previous one
    torn = snaps[-1]
    torn.write_text(torn.read_text()[: len(torn.read_text()) // 2])

    coordinator, factory = make_fleet(2, faults=False)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=tmp_path / "state",
        checkpoint_every=40,
    )
    report = supervisor.recover(population().clients)
    assert identity_holds(report)

    control_coord, _ = make_fleet(2, faults=False)
    control = FleetSupervisor(control_coord).serve(population().clients, 200)
    assert diff_fleet_reports(control, report) == []


# -- router rebalance + state --------------------------------------------------


def test_affinity_on_shard_up_rebalances_boundedly():
    router = AffinityRouter(migrate=2)
    router.assignments = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}
    router._tenant_items = {"a": 50, "b": 10, "c": 40, "d": 30, "e": 5}
    router.on_shard_up(2, None)
    evicted = {"a", "b", "c", "d", "e"} - set(router.assignments)
    # at most `migrate` tenants move, never a shard's top tenant
    assert evicted == {"d", "b"}
    assert router.assignments["a"] == 0
    assert router.assignments["c"] == 1


def test_router_state_round_trips_through_json():
    router = AffinityRouter()
    router.assignments = {"a": 0, "b": 1}
    router._tenant_items = {"a": 12, "b": 3}
    state = json.loads(json.dumps(router.state_dict()))
    fresh = AffinityRouter()
    fresh.load_state(state)
    assert fresh.assignments == {"a": 0, "b": 1}
    assert fresh._tenant_items == {"a": 12, "b": 3}

    rr = RoundRobinRouter()
    rr._turn = 5
    state = json.loads(json.dumps(rr.state_dict()))
    fresh_rr = RoundRobinRouter()
    fresh_rr.load_state(state)
    assert fresh_rr._turn == 5
