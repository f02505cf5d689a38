"""Restore anywhere, in memory: every stateful layer resumes bit-exactly.

Each object follows the same ``state_dict()`` / ``load_state()`` protocol.
For the memory system (trace replay), the serving engine (under a drawn
fault schedule, ``repair="color"`` and a retry timeout) and the fleet
coordinator with its shard engines, the property is the same: at a drawn
cycle take ``state_dict()``, round-trip it through JSON, ``load_state`` it
into a freshly built twin, run both to the end, and require equal reports
and equal final states.  Everything is built through
:class:`~repro.serve.config.EngineConfig` /
:class:`~repro.fleet.config.FleetConfig`, as the CLI builds it.

States are compared by their canonical JSON text
(:func:`repro.io.checksummed_json`), i.e. by the bytes a snapshot of them
would hold.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import heap_workload, range_query_workload
from repro.fleet import FleetConfig
from repro.fleet.router import ROUTERS
from repro.fleet.supervisor import diff_fleet_reports
from repro.io import checksummed_json
from repro.memory import AccessTrace
from repro.obs import EventRecorder
from repro.serve import EngineConfig, diff_reports

MODULES = 7


def _json_round_trip(state: dict) -> dict:
    return json.loads(json.dumps(state))


def _same_state(a: dict, b: dict) -> bool:
    return checksummed_json(a)[0] == checksummed_json(b)[0]


def fault_specs(cycles: int, modules: int = MODULES):
    """A fault-schedule spec (or ``None``): up to four fail / slow / drop
    windows inside the run (at most one per kind and module, so none
    overlap), plus the drop-lottery seed."""
    module = st.integers(0, modules - 1)
    start = st.integers(0, cycles)
    length = st.integers(1, 150)
    window = st.one_of(
        st.tuples(st.just("fail"), module, st.just(""), start, length),
        st.tuples(st.just("slow"), module, st.integers(2, 4), start, length),
        st.tuples(st.just("drop"), st.sampled_from([0.02, 0.05, 0.1]), st.just(""), start, length),
    )

    def spec(windows, seed):
        if not windows:
            return None
        terms = [
            f"{kind}={what}{f':{lat}' if lat else ''}@{a}:{a + d}"
            for kind, what, lat, a, d in windows
        ]
        return ",".join(terms + [f"seed={seed}"])

    return st.builds(
        spec,
        st.lists(window, max_size=4, unique_by=lambda w: w[0] if w[0] == "drop" else w[:2]),
        st.integers(0, 99),
    )


class TestMemorySystem:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 999))
    def test_trace_replay_resumes_anywhere(self, data, seed):
        config = EngineConfig(
            levels=9,
            modules=MODULES,
            workload="subtree:7=1",
            faults=data.draw(fault_specs(400)),
        )
        system = config.build()[0].system
        twin = config.build()[0].system
        tree = system.mapping.tree
        accesses = list(heap_workload(tree, ops=40, seed=seed))
        accesses += list(range_query_workload(tree, queries=15, seed=seed))
        split = data.draw(st.integers(0, len(accesses)))

        system.run_trace(AccessTrace(accesses[:split]))
        twin.load_state(_json_round_trip(system.state_dict()))
        rest = AccessTrace(accesses[split:])
        stats, twin_stats = system.run_trace(rest), twin.run_trace(rest)

        for field in dataclasses.fields(stats):
            a, b = getattr(stats, field.name), getattr(twin_stats, field.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
        assert system.module_stats() == twin.module_stats()
        assert _same_state(system.state_dict(), twin.state_dict())


class TestServeEngine:
    CYCLES = 240

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 999),
        retry_timeout=st.integers(4, 40),
        arrival_rate=st.sampled_from([0.15, 0.3, 0.5]),
    )
    def test_engine_resumes_anywhere(self, data, seed, retry_timeout, arrival_rate):
        config = EngineConfig(
            levels=9,
            modules=MODULES,
            cycles=self.CYCLES,
            clients=3,
            arrival_rate=arrival_rate,
            workload="subtree:7=2,path:6=1,level:4=1",
            seed=seed,
            faults=data.draw(fault_specs(self.CYCLES)),
            repair="color",
            retry_timeout=retry_timeout,
        )
        engine, clients, recorder = config.build(recorder=EventRecorder())
        twin, twin_clients, twin_recorder = config.build(recorder=EventRecorder())
        engine.start(clients, self.CYCLES)
        at = data.draw(st.integers(0, self.CYCLES + 60))
        while engine.cycle < at and engine.step():
            pass

        twin.load_state(_json_round_trip(engine.state_dict()), twin_clients)
        while engine.step():
            pass
        while twin.step():
            pass

        assert diff_reports(engine.finish(), twin.finish()) == []
        assert _same_state(engine.state_dict(), twin.state_dict())
        assert _json_round_trip(recorder.events) == _json_round_trip(
            twin_recorder.events
        )


class TestFleetCoordinator:
    CYCLES = 200
    SHARDS = 3

    @staticmethod
    def _state(coordinator) -> dict:
        return {
            "fleet": coordinator.state_dict(),
            "shards": [engine.state_dict() for engine in coordinator.shards],
        }

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 999),
        router=st.sampled_from(sorted(ROUTERS)),
        kill=st.one_of(
            st.none(),
            st.tuples(st.integers(0, SHARDS - 1), st.integers(1, CYCLES - 1)),
        ),
        quota=st.sampled_from([None, 2, 6]),
    )
    def test_fleet_resumes_anywhere(self, data, seed, router, kill, quota):
        config = FleetConfig(
            shards=self.SHARDS,
            router=router,
            levels=8,
            modules=MODULES,
            cycles=self.CYCLES,
            arrival_rate=1.2,
            workload="subtree:7=1,path:5=1,level:4=1",
            tenants=6,
            quota=quota,
            gold_every=3,
            kill_shard_at=None if kill is None else [f"{kill[0]}@{kill[1]}"],
            seed=seed,
            faults=data.draw(fault_specs(self.CYCLES)),
            repair="color",
            retry_timeout=data.draw(st.sampled_from([None, 12])),
        )
        fleet, population, _, _ = config.build()
        twin, twin_population, _, _ = config.build()
        fleet.start(population.clients, self.CYCLES)
        at = data.draw(st.integers(0, self.CYCLES + 60))
        while fleet.cycle < at and fleet.step():
            pass

        state = _json_round_trip(self._state(fleet))
        for shard, shard_state in enumerate(state["shards"]):
            twin.shards[shard].load_state(shard_state, [twin.feed(shard)])
        twin.load_state(state["fleet"], twin_population.clients)
        while fleet.step():
            pass
        while twin.step():
            pass

        assert diff_fleet_reports(fleet.finish(), twin.finish()) == []
        assert _same_state(self._state(fleet), self._state(twin))
