"""E20 — durability: crash recovery is deterministic and exactly-once.

Three claims.  First, for every crash cycle in a sweep — including crashes
mid-batch, mid-checkpoint (a torn snapshot at the final path) and with a
torn journal tail — restarting from the latest valid snapshot and replaying
the write-ahead journal reproduces the uninterrupted seeded run's
:class:`ServeReport` and obs event stream exactly.  Second, the journal's
exactly-once accounting holds: no admitted request is lost and none is
retired twice, crash or no crash.  Third, periodic checkpointing is cheap
enough to leave on: under 35% of serving wall time at a 100-cycle interval
in the production (telemetry-off) configuration.  This file pins all three
and times the checkpoint capture and recovery paths.
"""

import json

from repro.obs import EventRecorder
from repro.serve import (
    CrashPlan,
    DurableServer,
    EngineConfig,
    PoissonClient,
    ServeJournal,
    TemplateMix,
    assert_equivalent,
    journal_accounting,
    run_with_recovery,
)
from repro.trees import CompleteBinaryTree

CYCLES = 600
FAULT_SPEC = f"fail=2@100:260,slow=4:3@150:450,drop=0.05@50:{CYCLES},seed=5"
CONFIG = EngineConfig(
    levels=10, modules=7, workload="subtree:7=2,path:6=1,level:4=1",
    faults=FAULT_SPEC, repair="color", retry_timeout=40, queue_capacity=128,
)
MIX = TemplateMix.parse(CompleteBinaryTree(CONFIG.levels), CONFIG.workload)


def test_e20_claim_holds(rows_pin):
    from repro.bench.experiments import e20_durability

    result = e20_durability("quick")
    assert result.holds, str(result)
    rows_pin(result)


def _fresh_run(recorded=True):
    """A config-built engine and E20's own client seeds (100+i): what a
    restarted process rebuilds."""
    engine = CONFIG.build(recorder=EventRecorder() if recorded else None)[0]
    return engine, [PoissonClient(i, MIX, 0.06, seed=100 + i) for i in range(3)]


def test_e20_recovery_reproduces_the_uninterrupted_run(tmp_path):
    """Crash at a mid-batch cycle with faults active; the recovered run's
    report and event stream match the uninterrupted baseline exactly."""
    engine, clients = _fresh_run()
    baseline = engine.run(clients, max_cycles=CYCLES, drain_limit=50_000)
    base_events = list(engine.system.recorder.events)
    for mode in ("instant", "mid_checkpoint", "torn_journal"):
        outcome = run_with_recovery(
            _fresh_run,
            tmp_path / mode,
            CYCLES,
            drain_limit=50_000,
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=253, mode=mode),
        )
        assert outcome.crashed
        assert_equivalent(
            (baseline, base_events),
            (outcome.report, list(outcome.server.engine.system.recorder.events)),
        )


def test_e20_exactly_once_accounting(tmp_path):
    """The journal of a crashed-and-recovered run accounts for every
    admitted request exactly once: retired or shed, never both or neither."""
    outcome = run_with_recovery(
        _fresh_run,
        tmp_path,
        CYCLES,
        drain_limit=50_000,
        checkpoint_every=100,
        crash_plan=CrashPlan(at_cycle=455),
    )
    journal = ServeJournal.recover(tmp_path / "journal.jsonl")
    acct = journal_accounting(journal.records)
    journal.close()
    assert acct["double_retired"] == []
    assert acct["lost"] == set()
    assert len(acct["admitted"]) == outcome.report.admitted


def test_e20_checkpoint_overhead_within_budget(tmp_path):
    """Telemetry-off checkpointing every 100 cycles stays under the
    documented 35%-of-wall-time budget."""
    engine, clients = _fresh_run(recorded=False)
    server = DurableServer(engine, clients, tmp_path, checkpoint_every=100)
    server.serve(CYCLES, drain_limit=50_000)
    assert server.checkpoints_written >= 5
    assert 0.0 < server.checkpoint_overhead < 0.35


def test_bench_checkpoint_capture(benchmark):
    """Time one EngineSnapshot.capture + JSON encode of a mid-run engine."""
    engine, clients = _fresh_run(recorded=False)
    engine.start(clients, CYCLES, drain_limit=50_000)
    for _ in range(300):
        engine.step()
    benchmark(lambda: json.dumps(engine.checkpoint().to_json()))


def test_bench_crash_recovery(benchmark, tmp_path):
    """Time a full crash + recover round trip (restore + journal replay)."""
    counter = [0]

    def crash_and_recover():
        counter[0] += 1
        run_with_recovery(
            lambda: _fresh_run(recorded=False),
            tmp_path / str(counter[0]),
            CYCLES,
            drain_limit=50_000,
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=300),
        )

    benchmark(crash_and_recover)
