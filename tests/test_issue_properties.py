"""Property tests of the one service cycle, ``ParallelMemorySystem.issue``.

Barrier, pipelined and open-loop replay and the serving engine all serve
modules through this method, so its rules are checked here directly over
generated module counts, interconnects, latencies, port counts, queue
contents and scan starts:

* per cycle, at most ``issue_limit`` requests issue, and at most ``ports``
  per module;
* every served request completes at ``cycle + latency``;
* the round-robin scan starts at module ``start % M`` and visits modules
  in rotation order;
* on a unit-latency shared bus, a module holding work is served within
  ``M`` consecutive cycles.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModuloMapping
from repro.memory import Crossbar, MultiBus, ParallelMemorySystem, SharedBus
from repro.obs.events import EventRecorder
from repro.trees import CompleteBinaryTree

TREE = CompleteBinaryTree(9)
INTERCONNECTS = {
    "crossbar": Crossbar,
    "bus": SharedBus,
    "multibus2": lambda: MultiBus(2),
    "multibus3": lambda: MultiBus(3),
}


@st.composite
def arrays(draw, interconnect=st.sampled_from(sorted(INTERCONNECTS)), max_latency=3):
    M = draw(st.integers(min_value=1, max_value=9))
    return {
        "M": M,
        "interconnect": draw(interconnect),
        "latency": draw(st.integers(min_value=1, max_value=max_latency)),
        "ports": draw(st.integers(min_value=1, max_value=3)),
        "depths": draw(st.lists(st.integers(0, 6), min_size=M, max_size=M)),
        "start": draw(st.integers(min_value=0, max_value=50)),
    }


def _run(array):
    """Queue the drawn depths, then call ``issue`` until the queues empty.

    Returns, per cycle: the modules stepped (in call order), the ``issue``
    events, the yielded ``(module id, request, completion)`` triples and
    the modules that held work when the cycle began.
    """
    M = array["M"]
    recorder = EventRecorder()
    system = ParallelMemorySystem(
        ModuloMapping(TREE, M),
        interconnect=INTERCONNECTS[array["interconnect"]](),
        module_latency=array["latency"],
        module_ports=array["ports"],
        recorder=recorder,
    )
    nodes = [j + M * k for j, depth in enumerate(array["depths"]) for k in range(depth)]
    if nodes:
        system.submit(np.array(nodes, dtype=np.int64))
    stepped: list[int] = []
    for mod in system.modules:

        def spy(now, mod=mod, step=mod.step):
            stepped.append(mod.module_id)
            return step(now)

        mod.step = spy
    cycles = []
    cycle = 0
    while any(mod.queue for mod in system.modules):
        busy = {mod.module_id for mod in system.modules if mod.queue}
        stepped.clear()
        first_event = len(recorder.events)
        served = [
            (mod.module_id, request, completion)
            for mod, request, completion in system.issue(cycle, array["start"] + cycle)
        ]
        issues = [e for e in recorder.events[first_event:] if e["ev"] == "issue"]
        cycles.append((list(stepped), issues, served, busy))
        cycle += 1
        assert cycle < 10_000, "queues never emptied"
    return system, cycles


@settings(max_examples=150, deadline=None)
@given(arrays())
def test_issue_limits_and_completion(array):
    system, cycles = _run(array)
    limit = system.interconnect.issue_limit(array["M"])
    for cycle, (_, issues, served, _) in enumerate(cycles):
        assert len(issues) <= limit
        per_module = Counter(e["module"] for e in issues)
        assert all(n <= array["ports"] for n in per_module.values())
        assert [(e["module"], (e["tag"], e["address"])) for e in issues] == [
            (module, request) for module, request, _ in served
        ]
        for _, _, completion in served:
            assert completion == cycle + array["latency"]
    assert sum(len(served) for _, _, served, _ in cycles) == sum(array["depths"])


@settings(max_examples=150, deadline=None)
@given(arrays())
def test_scan_starts_at_start_mod_m(array):
    _, cycles = _run(array)
    M = array["M"]
    for cycle, (stepped, _, _, _) in enumerate(cycles):
        first = (array["start"] + cycle) % M
        rotation = [(first + off) % M for off in range(M)]
        visited = list(dict.fromkeys(stepped))  # distinct, in call order
        assert visited == rotation[: len(visited)]
        assert visited[0] == first


@settings(max_examples=150, deadline=None)
@given(arrays(interconnect=st.just("bus"), max_latency=1))
def test_shared_bus_serves_every_busy_module_within_m_cycles(array):
    _, cycles = _run(array)
    M = array["M"]
    served_at: dict[int, list[int]] = {}
    for cycle, (_, _, served, _) in enumerate(cycles):
        for module, _, _ in served:
            served_at.setdefault(module, []).append(cycle)
    for cycle, (_, _, _, busy) in enumerate(cycles):
        for module in busy:
            assert any(cycle <= s < cycle + M for s in served_at[module]), (
                f"module {module} held work at cycle {cycle} but was not "
                f"served within {M} cycles"
            )
