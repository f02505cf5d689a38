"""The running item counters equal the sums they replace, after every step.

Admission (``AdmissionQueue.pending_items`` / ``waiting_items``), the
engine's in-flight count behind ``ServeEngine.held_items`` and each fleet
feed's ``ShardFeed.backlog_items`` are updated where their lists change
instead of being re-summed on every read.  These properties drive engines
and fleets through faults, retry timeouts (with degrade), blocking and
degrading admission, shard kills, supervised restarts from disk and
mid-run ``state_dict()`` / ``load_state`` round trips, and check every
counter against a fresh sum after each step.  The configs follow
``tests/test_restore_anywhere.py`` and draw its fault schedules.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetConfig
from repro.fleet.coordinator import ShardFeed
from repro.fleet.router import ROUTERS
from repro.serve import EngineConfig
from repro.serve.batching import POLICIES
from repro.serve.request import ADMISSION_POLICIES
from repro.templates import PTemplate, STemplate
from repro.trees import CompleteBinaryTree
from tests.test_restore_anywhere import MODULES, _json_round_trip, fault_specs


def assert_engine_counters(engine) -> None:
    queue = engine.queue
    assert queue.pending_items == sum(req.size for req in queue.pending)
    assert queue.waiting_items == sum(req.size for req in queue.waiting)
    assert engine._inflight_items == sum(
        req.size for req in engine._requests.values()
    )


def assert_fleet_counters(fleet) -> None:
    for shard, engine in enumerate(fleet.shards):
        assert_engine_counters(engine)
        feed = fleet.feed(shard)
        assert feed.backlog_items == sum(
            instance.size for instance, _ in feed._incoming
        )


def _serving_knobs(data) -> dict:
    """Admission and retry settings that put requests on every list."""
    return {
        "policy": data.draw(st.sampled_from(sorted(POLICIES))),
        "admission": data.draw(st.sampled_from(ADMISSION_POLICIES)),
        "queue_capacity": data.draw(st.sampled_from([12, 24, 256])),
        "retry_timeout": data.draw(st.sampled_from([None, 4, 12])),
        "max_retries": 1,
        "repair": data.draw(st.sampled_from(["none", "color"])),
    }


class TestEngineCounters:
    CYCLES = 240

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 999))
    def test_counters_hold_every_step(self, data, seed):
        config = EngineConfig(
            levels=9,
            modules=MODULES,
            cycles=self.CYCLES,
            clients=3,
            arrival_rate=data.draw(st.sampled_from([0.3, 0.6])),
            workload="subtree:7=2,path:6=1,level:4=1",
            seed=seed,
            faults=data.draw(fault_specs(self.CYCLES)),
            **_serving_knobs(data),
        )
        engine, clients, _ = config.build()
        engine.start(clients, self.CYCLES)
        restore_at = set(data.draw(st.lists(st.integers(0, self.CYCLES + 60), max_size=3)))
        while True:
            if engine.cycle in restore_at:
                restore_at.discard(engine.cycle)
                twin, twin_clients, _ = config.build()
                twin.load_state(_json_round_trip(engine.state_dict()), twin_clients)
                engine = twin
                assert_engine_counters(engine)
            if not engine.step():
                break
            assert_engine_counters(engine)
        engine.purge()
        assert engine.held_items == 0
        assert_engine_counters(engine)


class TestFleetCounters:
    CYCLES = 200
    SHARDS = 3

    def _config(self, data, seed, **extra) -> FleetConfig:
        kills = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, self.SHARDS - 1), st.integers(1, self.CYCLES - 1)
                ),
                max_size=2,
                unique_by=lambda kill: kill[0],
            )
        )
        knobs = _serving_knobs(data)
        knobs.pop("max_retries")
        return FleetConfig(
            shards=self.SHARDS,
            router=data.draw(st.sampled_from(sorted(ROUTERS))),
            levels=8,
            modules=MODULES,
            cycles=self.CYCLES,
            arrival_rate=1.2,
            workload="subtree:7=1,path:5=1,level:4=1",
            tenants=6,
            quota=data.draw(st.sampled_from([None, 6])),
            gold_every=3,
            kill_shard_at=[f"{shard}@{cycle}" for shard, cycle in kills] or None,
            seed=seed,
            faults=data.draw(fault_specs(self.CYCLES)),
            max_retries=1,
            **knobs,
            **extra,
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 999))
    def test_counters_hold_every_step_across_round_trips(self, data, seed):
        config = self._config(data, seed)
        fleet, population, _, _ = config.build()
        fleet.start(population.clients, self.CYCLES)
        restore_at = set(data.draw(st.lists(st.integers(0, self.CYCLES + 60), max_size=3)))
        while True:
            if fleet.cycle in restore_at:
                restore_at.discard(fleet.cycle)
                twin, twin_population, _, _ = config.build()
                for shard, engine in enumerate(fleet.shards):
                    state = _json_round_trip(engine.state_dict())
                    twin.shards[shard].load_state(state, [twin.feed(shard)])
                twin.load_state(
                    _json_round_trip(fleet.state_dict()), twin_population.clients
                )
                fleet = twin
                assert_fleet_counters(fleet)
            if not fleet.step():
                break
            assert_fleet_counters(fleet)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 999))
    def test_counters_hold_every_step_across_supervised_restarts(self, data, seed):
        config = self._config(
            data, seed, restart_after=data.draw(st.sampled_from([10, 40])),
            checkpoint_every=data.draw(st.sampled_from([25, 60])),
        )
        fleet, population, _, factory = config.build()
        with tempfile.TemporaryDirectory() as state_dir:
            supervisor = config.supervise(fleet, factory, state_dir=state_dir)
            supervisor.start(population.clients, self.CYCLES)
            while supervisor.step():
                assert_fleet_counters(fleet)
            report = supervisor.finish()
        assert report.restarts == len(report.rejoined)


def test_a_feed_backlog_round_trips_with_its_count():
    """Feeds are drained within the fleet step that fills them, so a
    cycle-boundary capture rarely holds a backlog; check the rebuild
    directly."""
    tree = CompleteBinaryTree(8)
    feed = ShardFeed(0, coordinator=None)
    feed.push(STemplate(7).instance_at(tree, 3), "a")
    feed.push(PTemplate(5).instance_at(tree, 40), "b")
    assert feed.backlog_items == 12
    twin = ShardFeed(0, coordinator=None)
    twin.load_state(_json_round_trip(feed.state_dict()))
    assert twin.backlog_items == 12
    assert [tenant for _, tenant in twin.poll_tenants(0)] == ["a", "b"]
    assert twin.backlog_items == 0
