"""The barrier access's fast path equals the cycle loop it short-cuts.

With one port per module on a plain ``Crossbar``, ``SharedBus`` or
``MultiBus``, nothing queued, no failed module, no fault schedule, the
recorder off and ``record_latencies`` off,
:meth:`ParallelMemorySystem.access` skips the ``issue`` loop.  When the
access touches no more modules than the interconnect issues per cycle it
applies the paper's closed form (a module holding ``c`` items is busy
``c * latency`` cycles); otherwise it replays the loop's round-robin choices
on per-module counts.  The reference here is the same system built with
``record_latencies=True``, which always runs the loop and leaves
``state_dict()`` unchanged.  The second half pins that the loop still runs
whenever any one of the conditions fails, and the last part that it does so
too when a condition starts failing after a fast-path access (the idle
latch goes stale), over interleaved runs of both kinds of access.
"""

from contextlib import contextmanager
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import heap_workload, range_query_workload
from repro.core import ColorMapping, LabelTreeMapping, ModuloMapping
from repro.memory import (
    Crossbar,
    FaultModel,
    FaultSchedule,
    MemoryModule,
    MultiBus,
    ParallelMemorySystem,
    SharedBus,
    apply_faults,
)
from repro.obs import EventRecorder, PerfProfiler
from repro.trees import CompleteBinaryTree

TREE = CompleteBinaryTree(9)
MAPPINGS = {
    "color": ColorMapping.for_modules,
    "label-tree": LabelTreeMapping,
    "modulo": ModuloMapping,
}


@cache
def _mapping(kind: str, M: int):
    return MAPPINGS[kind](TREE, M)


@contextmanager
def _stepped():
    """Collect the ``id`` of every module ``MemoryModule.step`` is called on
    (modules are dataclasses, so equal state would compare equal)."""
    stepped: list[int] = []
    original = MemoryModule.step

    def counted(module, now):
        stepped.append(id(module))
        return original(module, now)

    MemoryModule.step = counted
    try:
        yield stepped
    finally:
        MemoryModule.step = original


def _result(result):
    return (
        result.cycles,
        result.conflicts,
        result.module_counts.tolist(),
        result.size,
        result.label,
    )


def _pair(mapping, latencies=(), interconnect=None):
    """A fast-path system and its loop reference, with profilers."""
    systems = [
        ParallelMemorySystem(
            mapping,
            interconnect=interconnect,
            record_latencies=reference,
            profiler=PerfProfiler(calibrate=False),
        )
        for reference in (False, True)
    ]
    for system in systems:
        for module, latency in zip(system.modules, latencies):
            module.set_base_latency(latency)
    return systems


def _profile(system):
    """The profiler's ``drain`` span calls and its counters (``cycles``)."""
    prof = system.profiler
    drain = prof.phase_table().get("drain", {})
    return drain.get("calls"), getattr(prof, "counters", None)


def _assert_same(fast, ref, fast_result, ref_result):
    assert _result(fast_result) == _result(ref_result)
    assert fast.state_dict() == ref.state_dict()
    assert fast.module_stats() == ref.module_stats()
    assert _profile(fast) == _profile(ref)


def _interconnects(M):
    """A crossbar, a shared bus or ``b`` buses for ``b`` in ``1..M+1`` (from
    ``b = M`` on the limit binds no more than a crossbar's)."""
    return st.one_of(
        st.builds(Crossbar),
        st.builds(SharedBus),
        st.integers(1, M + 1).map(MultiBus),
    )


def _with_interconnect(min_M, max_M):
    """``(M, interconnect)`` pairs."""
    return st.integers(min_value=min_M, max_value=max_M).flatmap(
        lambda M: st.tuples(st.just(M), _interconnects(M))
    )


# one access: explicit nodes (repeats allowed), a single node, every node on
# one module, or the previous access again
access_specs = st.one_of(
    st.tuples(
        st.just("nodes"),
        st.lists(
            st.integers(min_value=0, max_value=TREE.num_nodes - 1),
            min_size=1,
            max_size=40,
        ),
    ),
    st.tuples(st.just("single"), st.integers(0, TREE.num_nodes - 1)),
    st.tuples(st.just("one-module"), st.integers(0, 15), st.integers(1, 12)),
    st.tuples(st.just("repeat")),
)


def _nodes(spec, mapping, previous):
    kind = spec[0]
    if kind == "nodes":
        return np.array(spec[1], dtype=np.int64)
    if kind == "single":
        return np.array([spec[1]], dtype=np.int64)
    if kind == "one-module":
        colors = mapping.color_array()
        module = spec[1] % mapping.num_modules
        on_module = np.flatnonzero(colors == module)
        if on_module.size == 0:  # a module the mapping leaves unused
            on_module = np.array([0], dtype=np.int64)
        return on_module[: spec[2]]
    return previous if previous is not None else np.array([0], dtype=np.int64)


class TestClosedFormMatchesLoop:
    @settings(max_examples=250, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MAPPINGS)),
        shape=_with_interconnect(3, 16),
        latencies=st.lists(st.integers(1, 3), min_size=16, max_size=16),
        specs=st.lists(access_specs, min_size=1, max_size=10),
    )
    def test_every_access_matches(self, kind, shape, latencies, specs):
        M, interconnect = shape
        mapping = _mapping(kind, M)
        fast, ref = _pair(mapping, latencies[:M], interconnect)
        previous = None
        with _stepped() as stepped:
            for i, spec in enumerate(specs):
                nodes = _nodes(spec, mapping, previous)
                fast_result = fast.access(nodes, label=f"a{i}")
                ref_result = ref.access(nodes, label=f"a{i}")
                _assert_same(fast, ref, fast_result, ref_result)
                previous = nodes
        assert not set(stepped) & {id(module) for module in fast.modules}
        assert set(stepped) & {id(module) for module in ref.modules}
        assert (
            fast.profiler.phase_table()["drain"]["calls"]
            == ref.profiler.phase_table()["drain"]["calls"]
            == len(specs)
        )
        assert fast.profiler.counters == ref.profiler.counters

    @pytest.mark.parametrize(
        "kind, M, interconnect, latencies",
        [
            (kind, 15, Crossbar(), [1, 2, 3] * 5)
            for kind in sorted(MAPPINGS)
        ]
        # the e2e ``replay_bus`` shape: most accesses touch more than 8 modules
        + [("label-tree", 31, MultiBus(8), [2] * 31)],
        ids=[*sorted(MAPPINGS), "replay-bus"],
    )
    def test_heap_and_range_traces(self, kind, M, interconnect, latencies):
        mapping = _mapping(kind, M)
        fast, ref = _pair(mapping, latencies, interconnect)
        trace = heap_workload(TREE, ops=60, seed=3)
        trace.extend(range_query_workload(TREE, queries=20, seed=3))
        for label, nodes in trace:
            _assert_same(
                fast, ref, fast.access(nodes, label), ref.access(nodes, label)
            )
        fast_stats, ref_stats = fast.run_trace(trace), ref.run_trace(trace)
        assert fast_stats.per_label_cycles == ref_stats.per_label_cycles
        assert fast.state_dict() == ref.state_dict()
        assert _profile(fast) == _profile(ref)

    def test_static_slow_fault(self):
        """``apply_faults`` installs a base latency; the closed form holds."""
        mapping = _mapping("color", 15)
        fast, ref = (
            apply_faults(mapping, FaultModel.parse("slow=3:2,slow=9:3"))
            for _ in range(2)
        )
        ref.record_latencies = True
        trace = heap_workload(TREE, ops=80, seed=5)
        with _stepped() as stepped:
            for label, nodes in trace:
                _assert_same(
                    fast, ref, fast.access(nodes, label), ref.access(nodes, label)
                )
        assert not set(stepped) & {id(module) for module in fast.modules}

    def test_after_reset_and_load_state(self):
        mapping = _mapping("label-tree", 7)
        fast, ref = _pair(mapping, [2, 1, 1, 3, 1, 1, 2])
        nodes = np.arange(40, dtype=np.int64)
        fast.access(nodes)
        ref.access(nodes)
        fast.reset()
        ref.reset()
        _assert_same(fast, ref, fast.access(nodes), ref.access(nodes))
        fast.load_state(ref.state_dict())
        _assert_same(fast, ref, fast.access(nodes[::3]), ref.access(nodes[::3]))


class TestLoopStillRuns:
    """Each condition of the fast path, failed alone, sends ``access`` to
    the cycle loop (``MemoryModule.step`` is called)."""

    NODES = np.arange(30, dtype=np.int64)

    def _steps(self, system, nodes=None):
        with _stepped() as stepped:
            system.access(self.NODES if nodes is None else nodes)
        return len(stepped)

    def test_all_conditions_hold_takes_the_closed_form(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        assert self._steps(system) == 0

    def test_two_ports_can_hit_the_crossbar_limit(self):
        # M=3, P=2: counts [2, 2, 2] want 6 issues in cycle 0, the limit is 3
        system = ParallelMemorySystem(_mapping("modulo", 3), module_ports=2)
        nodes = np.arange(6, dtype=np.int64)
        assert self._steps(system, nodes) > 0
        assert system.modules[0].served == 2

    @pytest.mark.parametrize(
        "interconnect", [SharedBus(), MultiBus(3)], ids=["bus", "multibus"]
    )
    def test_narrow_interconnect(self, interconnect):
        """A narrow interconnect takes the fast path too and matches the
        loop: the first two accesses touch all 5 modules, more than the
        limit, so the round robin runs on counts; the last touches one."""
        fast, ref = _pair(_mapping("modulo", 5), [2, 1, 3, 1, 1], interconnect)
        for nodes in (self.NODES, self.NODES[:7], self.NODES[3:4]):
            with _stepped() as stepped:
                fast_result = fast.access(nodes)
            assert not stepped
            _assert_same(fast, ref, fast_result, ref.access(nodes))

    def test_two_port_multibus(self):
        system = ParallelMemorySystem(
            _mapping("modulo", 5), interconnect=MultiBus(3), module_ports=2
        )
        assert self._steps(system) > 0
        assert sum(mod.served for mod in system.modules) == self.NODES.size

    def test_crossbar_subclass(self):
        """A subclass of any of the three may change its issue limit, so it
        keeps the loop."""

        class WideCrossbar(Crossbar):
            pass

        class WideBus(SharedBus):
            pass

        class WideMultiBus(MultiBus):
            pass

        for interconnect in (WideCrossbar(), WideBus(), WideMultiBus(3)):
            system = ParallelMemorySystem(
                _mapping("modulo", 5), interconnect=interconnect
            )
            assert self._steps(system) > 0

    def test_attached_schedule(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        system.attach_faults(FaultSchedule.parse("slow=1:2@1000:2000,seed=1"))
        assert self._steps(system) > 0

    def test_enabled_recorder(self):
        recorder = EventRecorder()
        system = ParallelMemorySystem(_mapping("modulo", 5), recorder=recorder)
        assert self._steps(system) > 0
        assert recorder.events

    def test_record_latencies(self):
        system = ParallelMemorySystem(_mapping("modulo", 5), record_latencies=True)
        assert self._steps(system) > 0
        assert system.last_latencies.size == self.NODES.size

    def test_work_already_queued(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        system._arrive(np.array([0, 5], dtype=np.int64), "queued")
        assert self._steps(system) > 0
        assert sum(mod.served for mod in system.modules) == self.NODES.size + 2

    def test_failed_module(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        system.modules[4].failed = True
        nodes = self.NODES[self.NODES % 5 != 4]  # nothing waits on module 4
        assert self._steps(system, nodes) > 0


class TestIdleLatch:
    """After a closed-form access the system trusts its idle latch instead of
    scanning every module.  Each way the latch can go stale sends the next
    access back to the cycle loop."""

    NODES = np.arange(30, dtype=np.int64)

    def _warm(self, system):
        """One closed-form access, so the latch is set."""
        with _stepped() as stepped:
            system.access(self.NODES)
        assert not stepped
        assert system._idle

    def _steps(self, system):
        with _stepped() as stepped:
            system.access(self.NODES)
        return len(stepped)

    def test_latch_holds_across_closed_form_accesses(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        self._warm(system)
        assert self._steps(system) == 0

    def test_arrive(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        self._warm(system)
        system._arrive(np.array([0, 5], dtype=np.int64), "queued")
        assert self._steps(system) > 0
        assert sum(mod.served for mod in system.modules) == 2 * self.NODES.size + 2

    def test_submit(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        self._warm(system)
        system.submit(np.array([3], dtype=np.int64), key="late")
        assert self._steps(system) > 0
        assert not any(mod.queue for mod in system.modules)

    def test_load_state_with_queued_items(self):
        source = ParallelMemorySystem(_mapping("modulo", 5))
        source._arrive(np.array([1, 6, 11], dtype=np.int64), "queued")
        system = ParallelMemorySystem(_mapping("modulo", 5))
        self._warm(system)
        system.load_state(source.state_dict())
        assert self._steps(system) > 0
        assert system.modules[1].served == self.NODES.size // 5 + 3

    def test_load_state_with_a_failed_module(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        self._warm(system)
        state = system.state_dict()
        state["modules"][4]["failed"] = True
        system.load_state(state)
        with _stepped() as stepped:
            system.access(self.NODES[self.NODES % 5 != 4])
        assert stepped

    def test_attach_faults(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        self._warm(system)
        system.attach_faults(FaultSchedule.parse("slow=1:2@1000:2000,seed=1"))
        assert self._steps(system) > 0

    def test_record_latencies(self):
        system = ParallelMemorySystem(_mapping("modulo", 5))
        self._warm(system)
        system.record_latencies = True
        assert self._steps(system) > 0
        assert system.last_latencies.size == self.NODES.size
        system.record_latencies = False
        assert self._steps(system) == 0

    def test_enabled_recorder(self):
        recorder = EventRecorder()
        recorder.enabled = False
        system = ParallelMemorySystem(_mapping("modulo", 5), recorder=recorder)
        self._warm(system)
        assert not recorder.events
        recorder.enabled = True
        assert self._steps(system) > 0
        assert recorder.events


# one step of an interleaved run: a plain access, work queued ahead of the
# next access, an access with ``record_latencies`` on, a state round trip or
# a reset
latch_ops = st.one_of(
    st.tuples(st.just("access"), access_specs),
    st.tuples(
        st.just("queue"),
        st.lists(st.integers(0, TREE.num_nodes - 1), min_size=1, max_size=12),
    ),
    st.tuples(st.just("latencies"), access_specs),
    st.tuples(st.just("round-trip")),
    st.tuples(st.just("reset")),
)


class TestLatchInterleaved:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MAPPINGS)),
        shape=_with_interconnect(3, 31),
        latencies=st.lists(st.integers(1, 3), min_size=31, max_size=31),
        ops=st.lists(latch_ops, min_size=1, max_size=14),
    )
    def test_state_matches_the_loop_after_every_step(self, kind, shape, latencies, ops):
        """Fast-path accesses interleaved with ones the loop must serve
        (queued work, ``record_latencies``, ``load_state``, ``reset``)
        leave the loop reference's whole state and profiler counters after
        every step, port clocks included, and a plain access with nothing
        queued never steps a module."""
        M, interconnect = shape
        mapping = _mapping(kind, M)
        fast, ref = _pair(mapping, latencies[:M], interconnect)
        previous = None
        for i, op in enumerate(ops):
            kind_of = op[0]
            if kind_of == "queue":
                queued = np.array(op[1], dtype=np.int64)
                for system in (fast, ref):
                    system._arrive(queued, "queued")
            elif kind_of == "round-trip":
                for system in (fast, ref):
                    system.load_state(system.state_dict())
            elif kind_of == "reset":
                for system in (fast, ref):
                    system.reset()
            else:
                nodes = _nodes(op[1], mapping, previous)
                idle = not any(mod.queue for mod in fast.modules)
                fast.record_latencies = kind_of == "latencies"
                with _stepped() as stepped:
                    fast_result = fast.access(nodes, label=f"a{i}")
                fast.record_latencies = False
                ref_result = ref.access(nodes, label=f"a{i}")
                assert _result(fast_result) == _result(ref_result)
                if kind_of == "access" and idle:
                    assert not stepped
                previous = nodes
            assert fast.state_dict() == ref.state_dict()
            assert fast.module_stats() == ref.module_stats()
            assert _profile(fast) == _profile(ref)
