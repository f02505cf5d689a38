"""The ``ServeEngine.step()`` contract the fleet coordinator leans on.

Two promises, pinned here because :class:`repro.fleet.FleetCoordinator`
step-drives many engines in lockstep and checkpoints lean on the same
split: (1) ``run()`` is exactly ``start()`` + ``step()``-until-``False``
+ ``finish()`` — a step-driven run produces the identical report and obs
event stream; (2) once ``step()`` returns ``False`` the engine's state is
frozen — the exit checks run before any work, so extra ``step()`` calls
change nothing and a checkpoint captured at the very last cycle restores
to the same final report.
"""

from repro.core import ColorMapping
from repro.memory import ParallelMemorySystem
from repro.obs import EventRecorder
from repro.serve import (
    PoissonClient,
    ServeEngine,
    TemplateMix,
    assert_equivalent,
    diff_reports,
    filter_control,
)
from repro.serve.clients import spawn_seeds
from repro.trees import CompleteBinaryTree

CYCLES = 300


def _build(seed=3, recorded=True):
    tree = CompleteBinaryTree(9)
    mapping = ColorMapping.for_modules(tree, 7)
    recorder = EventRecorder() if recorded else None
    system = ParallelMemorySystem(mapping, recorder=recorder)
    engine = ServeEngine(system, policy="greedy-pack")
    mix = TemplateMix.parse(tree, "subtree:7=2,path:6=1,level:4=1")
    clients = [
        PoissonClient(i, mix, rate=0.2, seed=child)
        for i, child in enumerate(spawn_seeds(seed, 3))
    ]
    return engine, clients, recorder


def test_step_driven_run_is_report_identical_to_run():
    engine_a, clients_a, rec_a = _build()
    report_a = engine_a.run(clients_a, max_cycles=CYCLES)

    engine_b, clients_b, rec_b = _build()
    engine_b.start(clients_b, max_cycles=CYCLES)
    steps = 0
    while engine_b.step():
        steps += 1
    report_b = engine_b.finish()

    assert steps >= CYCLES
    assert_equivalent((report_a, rec_a.events), (report_b, rec_b.events))


def test_false_step_leaves_state_untouched():
    engine, clients, _ = _build()
    engine.start(clients, max_cycles=CYCLES)
    while engine.step():
        pass
    frozen = engine.checkpoint().to_json()
    for _ in range(5):
        assert engine.step() is False
    assert engine.checkpoint().to_json() == frozen


def test_checkpoint_at_last_cycle_restores_final_report():
    engine, clients, _ = _build()
    engine.start(clients, max_cycles=CYCLES)
    while engine.step():
        pass
    # checkpoint *after* the run is over but before finish(): the False
    # contract is what makes this snapshot valid
    snapshot = engine.checkpoint()
    report = engine.finish()

    fresh_engine, fresh_clients, _ = _build()
    fresh_engine.restore(snapshot, fresh_clients)
    assert fresh_engine.step() is False
    restored = fresh_engine.finish()
    assert diff_reports(report, restored) == []


def test_events_match_between_run_and_stepped_run():
    engine_a, clients_a, rec_a = _build(seed=11)
    engine_a.run(clients_a, max_cycles=150)

    engine_b, clients_b, rec_b = _build(seed=11)
    engine_b.start(clients_b, max_cycles=150)
    while engine_b.step():
        pass
    engine_b.finish()

    assert filter_control(rec_a.events) == filter_control(rec_b.events)
