"""Crash-consistent serving: snapshots, the write-ahead journal, and
deterministic recovery (plus the satellite state-capture contracts)."""

import dataclasses
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColorMapping
from repro.io import (
    checksummed_json,
    load_faults,
    load_snapshot,
    save_faults,
    save_snapshot,
    snapshot_document,
)
from repro.memory import FaultSchedule, ParallelMemorySystem
from repro.obs import EventRecorder
from repro.serve import (
    CrashPlan,
    DurabilityError,
    DurableServer,
    EngineConfig,
    EngineSnapshot,
    JournalError,
    PoissonClient,
    ServeEngine,
    ServeJournal,
    SimulatedCrash,
    TemplateMix,
    assert_equivalent,
    diff_reports,
    filter_control,
    journal_accounting,
    run_with_recovery,
)
from repro.serve.slo import SLOTracker
from repro.trees import CompleteBinaryTree

FAULT_SPEC = "fail=2@100:220,slow=4:3@150:400,drop=0.05@50:500,seed=5"


def make_factory(
    *,
    levels=9,
    modules=7,
    faults=FAULT_SPEC,
    recorder=True,
    rate=0.08,
    clients=3,
    retry_timeout=40,
    repair="color",
    **engine_kwargs,
):
    """A process-restart stand-in: each call builds the same fresh setup."""

    def factory():
        tree = CompleteBinaryTree(levels)
        mapping = ColorMapping.for_modules(tree, modules)
        rec = EventRecorder() if recorder else None
        system = ParallelMemorySystem(mapping, recorder=rec)
        if faults is not None:
            system.attach_faults(FaultSchedule.parse(faults))
        engine = ServeEngine(
            system,
            "greedy-pack",
            retry_timeout=retry_timeout,
            repair=repair,
            queue_capacity=128,
            **engine_kwargs,
        )
        mix = TemplateMix.parse(tree, "subtree:7=2,path:6=1,level:4=1")
        cs = [PoissonClient(i, mix, rate, seed=100 + i) for i in range(clients)]
        return engine, cs

    return factory


def uninterrupted(factory, state_dir, max_cycles=400, checkpoint_every=100):
    engine, clients = factory()
    server = DurableServer(
        engine, clients, state_dir, checkpoint_every=checkpoint_every
    )
    report = server.serve(max_cycles)
    return report, list(engine.system.recorder.events), server


class TestSnapshotRoundTrip:
    def test_mid_run_snapshot_resumes_bit_exactly(self, tmp_path):
        factory = make_factory()
        base_report, base_events, _ = uninterrupted(factory, tmp_path / "base")

        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(180):  # mid-run, faults active, batches in flight
            assert engine.step()
        snapshot = engine.checkpoint()
        # survive the actual persistence path, not just object identity
        save_snapshot(snapshot.to_json(), tmp_path / "snap.json")
        restored = EngineSnapshot.from_json(load_snapshot(tmp_path / "snap.json"))

        engine2, clients2 = factory()
        engine2.restore(restored, clients2)
        while engine2.step():
            pass
        report = engine2.finish()
        assert_equivalent(
            (base_report, base_events),
            (report, list(engine2.system.recorder.events)),
        )

    def test_snapshot_json_is_pure_json(self, tmp_path):
        engine, clients = make_factory()()
        engine.start(clients, 400)
        for _ in range(120):
            engine.step()
        payload = engine.checkpoint().to_json()
        assert json.loads(json.dumps(payload)) == json.loads(json.dumps(payload))

    def test_restore_rejects_mismatched_configuration(self):
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(50):
            engine.step()
        snapshot = engine.checkpoint()
        other, other_clients = make_factory(repair="oblivious")()
        with pytest.raises(DurabilityError, match="configuration"):
            other.restore(snapshot, other_clients)

    def test_restore_rejects_mismatched_clients(self):
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(50):
            engine.step()
        snapshot = engine.checkpoint()
        engine2, _ = factory()
        _, wrong = make_factory(clients=2)()
        with pytest.raises(DurabilityError, match="client ids"):
            engine2.restore(snapshot, wrong)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda state: state.pop("run"),
            lambda state: state["run"].pop("cycle"),
            lambda state: state.update(next_id="seven"),
            lambda state: state.update(inflight=5),
            lambda state: state.update(queue=[]),
            lambda state: state["requests"].update(bogus={"id": 1}),
        ],
        ids=["no-run", "no-cycle", "str-next-id", "int-inflight", "list-queue", "bad-request"],
    )
    def test_load_state_rejects_missing_or_ill_typed_fields(self, spoil):
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(50):
            engine.step()
        state = json.loads(json.dumps(engine.state_dict()))
        spoil(state)
        fresh, fresh_clients = factory()
        with pytest.raises(DurabilityError, match="missing or has an ill-typed field"):
            fresh.load_state(state, fresh_clients)

    def test_restore_preserves_absolute_clocks(self):
        """Restoring must keep the lifetime clock and per-module port
        clocks — unlike reset() — so post-recovery fault windows fire at
        the same absolute cycles as in the uninterrupted run."""
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(180):
            engine.step()
        snapshot = engine.checkpoint()
        clock = engine.system.clock
        ports = [list(mod._port_free) for mod in engine.system.modules]
        cursor = engine.system._fault_schedule.cursor
        # the run actually advanced: fault edges applied, ports scheduled
        assert cursor > 0
        assert any(p > 0 for port in ports for p in port)

        engine2, clients2 = factory()
        engine2.system.reset()
        assert engine2.system._fault_schedule.cursor == 0  # reset() rewinds
        assert all(
            p == 0 for m in engine2.system.modules for p in m._port_free
        )
        engine2.restore(snapshot, clients2)
        assert engine2.system.clock == clock
        assert [list(m._port_free) for m in engine2.system.modules] == ports
        assert engine2.system._fault_schedule.cursor == cursor
        assert engine2._cycle == snapshot.cycle


class TestJournal:
    def test_create_record_recover(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        j.record("admit", 3, request=0, client=1, size=7)
        j.record("dispatch", 4, batch=0, requests=[0], size=7, conflicts=0)
        j.close()
        j2 = ServeJournal.recover(path)
        assert [r["kind"] for r in j2.records] == ["admit", "dispatch"]
        assert j2.position == 2
        j2.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        for i in range(5):
            j.record("admit", i, request=i)
        j.close()
        with path.open("a") as fh:
            fh.write('{"crc": 123, "rec": {"seq": ')  # no newline: torn
        j2 = ServeJournal.recover(path)
        assert len(j2.records) == 5
        j2.close()
        # the torn bytes are gone from disk too
        j3 = ServeJournal.recover(path)
        assert len(j3.records) == 5
        j3.close()

    def test_bad_crc_truncates_from_there(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        for i in range(4):
            j.record("admit", i, request=i)
        j.close()
        lines = path.read_text().splitlines()
        doc = json.loads(lines[3])  # seqno 2
        doc["crc"] ^= 1
        lines[3] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        j2 = ServeJournal.recover(path)
        assert [r["seq"] for r in j2.records] == [0, 1]
        j2.close()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"not": "a journal"}\n')
        with pytest.raises(DurabilityError, match="not a serve journal"):
            ServeJournal.recover(path)

    def test_replay_verifies_and_flags_divergence(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        j.record("admit", 0, request=0)
        j.record("admit", 1, request=1)
        j.close()
        j2 = ServeJournal.recover(path)
        j2.seek_replay(0)
        assert j2.replaying
        j2.record("admit", 0, request=0)  # matches: ok
        with pytest.raises(JournalError, match="diverged at seqno 1"):
            j2.record("admit", 1, request=99)
        j2.close()

    def test_seek_replay_rejects_future_seqno(self, tmp_path):
        j = ServeJournal.create(tmp_path / "j.jsonl")
        with pytest.raises(JournalError, match="disagree"):
            j.seek_replay(3)
        j.close()


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", ["instant", "mid_checkpoint", "torn_journal"])
    def test_recovery_is_equivalent(self, tmp_path, mode):
        factory = make_factory()
        base_report, base_events, _ = uninterrupted(factory, tmp_path / "base")
        for at in (1, 77, 100, 253):  # incl. mid-batch and a checkpoint cycle
            result = run_with_recovery(
                factory,
                tmp_path / f"{mode}-{at}",
                400,
                checkpoint_every=100,
                crash_plan=CrashPlan(at_cycle=at, mode=mode),
            )
            assert result.crashed
            assert_equivalent(
                (base_report, base_events),
                (result.report, list(result.server.engine.system.recorder.events)),
            )

    def test_exactly_once_accounting(self, tmp_path):
        factory = make_factory()
        result = run_with_recovery(
            factory,
            tmp_path / "run",
            400,
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=253),
        )
        journal = ServeJournal.recover(tmp_path / "run" / "journal.jsonl")
        acct = journal_accounting(journal.records)
        journal.close()
        assert acct["double_retired"] == []
        assert acct["lost"] == set()
        assert len(acct["admitted"]) == result.report.admitted
        # retire + timeout-shed partitions the admitted set on a drained run
        assert len(acct["retired"]) == result.report.completed

    def test_cold_start_recovery_replays_from_zero(self, tmp_path):
        """A crash before the first checkpoint leaves only the journal;
        recovery re-executes from cycle 0 under full verification."""
        factory = make_factory()
        base_report, base_events, _ = uninterrupted(factory, tmp_path / "base")
        result = run_with_recovery(
            factory,
            tmp_path / "cold",
            400,
            checkpoint_every=1000,  # never reached before the crash
            crash_plan=CrashPlan(at_cycle=90),
        )
        assert result.crashed
        assert not list((tmp_path / "cold").glob("snap-*.json.tmp"))
        assert_equivalent(
            (base_report, base_events),
            (result.report, list(result.server.engine.system.recorder.events)),
        )

    def test_no_crash_runs_straight_through(self, tmp_path):
        factory = make_factory()
        result = run_with_recovery(
            factory, tmp_path / "run", 400, checkpoint_every=100
        )
        assert not result.crashed
        assert result.server.checkpoints_written > 0

    def test_tampered_journal_fails_replay(self, tmp_path):
        factory = make_factory()
        engine, clients = factory()
        server = DurableServer(
            engine,
            clients,
            tmp_path / "run",
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=253),
        )
        with pytest.raises(SimulatedCrash):
            server.serve(400)
        # tamper with a record past the last snapshot (cycle 200)
        path = tmp_path / "run" / "journal.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        doc["rec"]["request"] = 424242
        doc["crc"] = None  # recompute below so the CRC passes
        import zlib

        doc["crc"] = zlib.crc32(
            json.dumps(doc["rec"], sort_keys=True, separators=(",", ":")).encode()
        )
        lines[-1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        engine2, clients2 = factory()
        server2 = DurableServer(
            engine2, clients2, tmp_path / "run", checkpoint_every=100
        )
        with pytest.raises(JournalError, match="diverged"):
            server2.recover()

    def test_recover_without_manifest_rejected(self, tmp_path):
        engine, clients = make_factory()()
        server = DurableServer(engine, clients, tmp_path / "empty")
        with pytest.raises(DurabilityError, match="manifest"):
            server.recover()

    def test_control_events_are_emitted_and_filtered(self, tmp_path):
        factory = make_factory()
        result = run_with_recovery(
            factory,
            tmp_path / "run",
            400,
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=253),
        )
        events = list(result.server.engine.system.recorder.events)
        kinds = {ev["ev"] for ev in events}
        assert {"restore", "journal_replay"} <= kinds
        filtered = {ev["ev"] for ev in filter_control(events)}
        assert not filtered & {"checkpoint", "restore", "journal_replay"}

    def test_snapshots_are_pruned_to_retain(self, tmp_path):
        factory = make_factory()
        _, _, server = uninterrupted(
            factory, tmp_path / "run", max_cycles=400, checkpoint_every=50
        )
        snaps = sorted((tmp_path / "run").glob("snap-*.json"))
        assert len(snaps) == server.retain
        assert server.checkpoints_written > server.retain

    def test_checkpoint_overhead_is_tracked(self, tmp_path):
        factory = make_factory()
        _, _, server = uninterrupted(factory, tmp_path / "run")
        assert server.checkpoints_written > 0
        assert server.checkpoint_seconds > 0
        assert 0.0 < server.checkpoint_overhead < 1.0


class TestCrashPlanValidation:
    def test_bad_plans_rejected(self):
        with pytest.raises(ValueError, match="at_cycle"):
            CrashPlan(at_cycle=-1)
        with pytest.raises(ValueError, match="crash mode"):
            CrashPlan(at_cycle=0, mode="gently")

    def test_bad_server_parameters_rejected(self, tmp_path):
        engine, clients = make_factory()()
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurableServer(engine, clients, tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError, match="retain"):
            DurableServer(engine, clients, tmp_path, retain=0)


class TestDiffAndEquivalence:
    def test_diff_reports_names_fields(self, tmp_path):
        factory = make_factory()
        report, _, _ = uninterrupted(factory, tmp_path / "a")
        import dataclasses

        other = dataclasses.replace(report, completed=report.completed + 1)
        diffs = diff_reports(report, other)
        assert len(diffs) == 1 and diffs[0].startswith("completed:")
        with pytest.raises(DurabilityError, match="completed"):
            assert_equivalent((report, []), (other, []))

    def test_event_length_mismatch_detected(self, tmp_path):
        factory = make_factory()
        report, events, _ = uninterrupted(factory, tmp_path / "a")
        with pytest.raises(DurabilityError, match="length"):
            assert_equivalent((report, events), (report, events[:-1]))


# -- satellite contracts -------------------------------------------------------


class TestRepairCacheLRU:
    def test_cache_is_bounded_with_lru_eviction(self):
        tree = CompleteBinaryTree(8)
        mapping = ColorMapping.for_modules(tree, 7)
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(system, "fifo", repair="color", repair_cache_cap=2)
        a = engine._repair_mapping(frozenset({1}))
        b = engine._repair_mapping(frozenset({2}))
        # touch {1} so {2} is the least recently used entry
        assert engine._repair_mapping(frozenset({1})) is a
        c = engine._repair_mapping(frozenset({3}))
        assert set(engine._repair_cache) == {frozenset({1}), frozenset({3})}
        # an evicted set rebuilds deterministically (same coloring, new object)
        b2 = engine._repair_mapping(frozenset({2}))
        assert b2 is not b
        assert np.array_equal(b2.color_array(), b.color_array())
        assert len(engine._repair_cache) == 2
        assert engine._repair_mapping(frozenset({3})) is c

    def test_cap_validated(self):
        tree = CompleteBinaryTree(8)
        system = ParallelMemorySystem(ColorMapping.for_modules(tree, 7))
        with pytest.raises(ValueError, match="repair_cache_cap"):
            ServeEngine(system, "fifo", repair_cache_cap=0)


class TestEmptyReportAccessors:
    def test_empty_run_yields_defined_values(self):
        report = SLOTracker().report("fifo", cycles=0)
        assert report.p50 is None
        assert report.p95 is None
        assert report.p99 is None
        assert report.max_latency is None
        assert report.completion_rate == 0.0
        assert report.admit_rate == 0.0
        assert report.throughput == 0.0
        assert report.goodput == 0.0
        assert report.shed_rate == 0.0
        assert report.deadline_miss_rate == 0.0
        assert report.availability == 1.0

    def test_populated_run_matches_latency_dict(self, tmp_path):
        factory = make_factory()
        report, _, _ = uninterrupted(factory, tmp_path / "a")
        assert report.p50 == report.latency["p50"]
        assert report.p95 == report.latency["p95"]
        assert report.max_latency == report.latency["max"]
        assert report.completion_rate == report.completed / report.arrivals
        assert report.throughput == report.completed / report.cycles


class TestFaultScheduleRuntimeRoundTrip:
    def test_save_load_mid_run_equals_straight_through(self, tmp_path):
        """Advancing a schedule, saving it, loading it and advancing the
        rest must equal advancing straight through — cursor and drop
        lottery both resume mid-stream."""
        spec = "fail=1@10:60,slow=2:4@30:90,drop=0.2@0:200,seed=13"

        def run(system, upto, start=0):
            for cycle in range(start, upto):
                system.advance_faults(cycle)
                # spin the drop lottery the way serving traffic would
                system._drop_rng.random()

        tree = CompleteBinaryTree(6)
        mapping = ColorMapping.for_modules(tree, 5)

        straight = ParallelMemorySystem(mapping)
        straight.attach_faults(FaultSchedule.parse(spec))
        run(straight, 120)
        final_draw = straight._drop_rng.random()

        first = ParallelMemorySystem(mapping)
        first.attach_faults(FaultSchedule.parse(spec))
        run(first, 70)
        save_faults(first._fault_schedule, tmp_path / "faults.json")

        loaded = load_faults(tmp_path / "faults.json")
        assert isinstance(loaded, FaultSchedule)
        assert loaded.cursor == first._fault_schedule.cursor
        second = ParallelMemorySystem(mapping)
        second.attach_faults(loaded)
        run(second, 120, start=70)
        assert second._drop_rng.random() == final_draw
        assert second.failed_modules() == straight.failed_modules()
        assert [m.latency for m in second.modules] == [
            m.latency for m in straight.modules
        ]

    def test_loaded_schedule_without_runtime_starts_fresh(self, tmp_path):
        sched = FaultSchedule.parse("fail=1@10:60,seed=3")
        payload = sched.to_json()
        payload.pop("runtime")
        (tmp_path / "plain.json").write_text(json.dumps(payload))
        loaded = load_faults(tmp_path / "plain.json")
        assert loaded.cursor == 0

    def test_restore_runtime_validates_cursor(self):
        sched = FaultSchedule.parse("fail=1@10:60,seed=3")
        state = sched.state_dict()
        state["cursor"] = 99
        with pytest.raises(ValueError, match="cursor"):
            sched.load_state(state)


# -- checkpoint cost: tracker capture and the on-disk layout --------------------

_COUNTERS = [
    f.name for f in dataclasses.fields(SLOTracker) if f.default is not dataclasses.MISSING
]
_LISTS = [
    f.name
    for f in dataclasses.fields(SLOTracker)
    if f.default is dataclasses.MISSING and f.name != "tenants"
]
_ints = st.integers(min_value=0, max_value=10**6)
_buckets = st.fixed_dictionaries(
    {
        "arrivals": _ints,
        "completed": _ints,
        "items": _ints,
        "shed": _ints,
        "sojourns": st.lists(_ints, max_size=20),
    }
)
_trackers = st.builds(
    lambda counters, lists, tenants: SLOTracker(**counters, **lists, tenants=tenants),
    st.fixed_dictionaries({name: _ints for name in _COUNTERS}),
    st.fixed_dictionaries({name: st.lists(_ints, max_size=30) for name in _LISTS}),
    st.dictionaries(st.text(min_size=1, max_size=6), _buckets, max_size=5),
)


def _mutate(tracker: SLOTracker) -> None:
    """Everything the engine callbacks can do to a tracker after a capture."""
    for name in _COUNTERS:
        setattr(tracker, name, getattr(tracker, name) + 1)
    for name in _LISTS:
        getattr(tracker, name).append(-1)
    for bucket in tracker.tenants.values():
        bucket["completed"] += 1
        bucket["sojourns"].append(-1)
    tracker.tenants["new-tenant"] = {
        "arrivals": 1, "completed": 0, "items": 0, "shed": 0, "sojourns": [],
    }


class TestTrackerState:
    @settings(max_examples=60, deadline=None)
    @given(_trackers)
    def test_state_dict_equals_asdict_in_order(self, tracker):
        state = tracker.state_dict()
        reference = dataclasses.asdict(tracker)
        assert state == reference
        # key order too, at every level: the unsorted encodings agree
        assert json.dumps(state) == json.dumps(reference)

    @settings(max_examples=60, deadline=None)
    @given(_trackers)
    def test_capture_is_independent_of_the_live_tracker(self, tracker):
        state = tracker.state_dict()
        frozen = json.dumps(state)
        _mutate(tracker)
        assert json.dumps(state) == frozen

    @settings(max_examples=60, deadline=None)
    @given(_trackers)
    def test_load_state_round_trips_without_aliasing(self, tracker):
        state = tracker.state_dict()
        frozen = json.dumps(state)
        restored = SLOTracker()
        restored.load_state(state)
        assert dataclasses.asdict(restored) == dataclasses.asdict(tracker)
        _mutate(restored)
        assert json.dumps(state) == frozen

    def test_load_state_defaults_missing_fields(self):
        restored = SLOTracker(arrivals=3, sojourns=[1])
        state = SLOTracker(arrivals=5).state_dict()
        del state["tenants"], state["recoveries"]
        restored.load_state(state)
        assert restored == SLOTracker(arrivals=5)

    def test_one_snapshot_restores_twice_identically(self):
        """Two engines restored from the same in-memory snapshot run the
        same history: the first must not append into the snapshot."""
        config = EngineConfig(
            levels=9, modules=7, cycles=400, arrival_rate=0.25, clients=2,
            seed=4, workload="subtree:7=2,path:6=1,level:4=1",
        )
        engine, clients, _ = config.build()
        engine.start(clients, config.cycles)
        for _ in range(200):
            engine.step()
        snapshot = engine.checkpoint()
        reports = []
        for _ in range(2):
            engine, clients, _ = config.build()
            engine.restore(snapshot, clients)
            while engine.step():
                pass
            reports.append(engine.finish())
        assert diff_reports(reports[0], reports[1]) == []


# Earlier releases wrote snapshot payloads and journal records with a plain
# ``json.dumps`` (insertion order, default spacing) and a CRC over the
# canonical encoding; these helpers write that layout independently of
# ``repro.io`` so the readers are checked against it.


def _old_crc(obj) -> int:
    return zlib.crc32(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def _old_snapshot_text(payload: dict) -> str:
    doc = {
        "format_version": 1,
        "type": "engine_snapshot",
        "crc": _old_crc(payload),
        "payload": payload,
    }
    return json.dumps(doc) + "\n"


def _mid_run_payload() -> dict:
    """A mid-run snapshot payload as JSON gives it back (tuples as lists)."""
    engine, clients = make_factory()()
    engine.start(clients, 400)
    for _ in range(180):
        engine.step()
    return json.loads(json.dumps(engine.checkpoint().to_json()))


def _flip_digit(text: str, start: int) -> str:
    """``text`` with the first digit at or after ``start`` changed."""
    pos = next(i for i in range(start, len(text)) if text[i].isdigit())
    flipped = "1" if text[pos] != "1" else "2"
    return text[:pos] + flipped + text[pos + 1 :]


class TestOnDiskLayout:
    def test_snapshot_payload_is_stored_canonically(self, tmp_path):
        payload = _mid_run_payload()
        path = save_snapshot(payload, tmp_path / "snap.json")
        text = path.read_text()
        assert text == snapshot_document(payload)
        canonical, crc = checksummed_json(payload)
        assert text.endswith(f'"crc": {crc}, "payload": {canonical}}}\n')
        assert load_snapshot(path) == payload
        assert not list(tmp_path.glob("*.tmp"))

    def test_old_layout_snapshot_loads(self, tmp_path):
        payload = _mid_run_payload()
        path = tmp_path / "snap.json"
        path.write_text(_old_snapshot_text(payload))
        assert '"payload": {"version": 1, "cycle": 180' in path.read_text()
        assert load_snapshot(path) == payload
        snapshot = EngineSnapshot.from_json(load_snapshot(path))
        assert snapshot.cycle == 180

    def test_flipped_payload_byte_is_rejected(self, tmp_path):
        payload = _mid_run_payload()
        text = snapshot_document(payload)
        path = tmp_path / "snap.json"
        path.write_text(_flip_digit(text, text.index('"payload"')))
        with pytest.raises(ValueError, match="checksum"):
            load_snapshot(path)

    def test_mid_checkpoint_crash_leaves_half_the_document(self, tmp_path):
        factory = make_factory()
        engine, clients = factory()
        server = DurableServer(
            engine, clients, tmp_path, checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=150, mode="mid_checkpoint"),
        )
        with pytest.raises(SimulatedCrash):
            server.serve(400)
        torn = (tmp_path / "snap-000000150.json").read_text()
        doc = snapshot_document(engine.checkpoint().to_json())
        assert torn == doc[: len(doc) // 2]
        with pytest.raises(ValueError, match="not a complete snapshot"):
            load_snapshot(tmp_path / "snap-000000150.json")
        assert server.store.latest_snapshot().cycle == 100

    def test_journal_records_are_stored_canonically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        j.record("admit", 3, request=0, client=1, tenant="1", size=7)
        j.close()
        rec = {"seq": 0, "kind": "admit", "cycle": 3, "request": 0,
               "client": 1, "tenant": "1", "size": 7}
        text, crc = checksummed_json(rec)
        assert path.read_text().splitlines()[1] == f'{{"crc": {crc}, "rec": {text}}}'

    def test_old_layout_journal_loads(self, tmp_path):
        records = [
            {"seq": 0, "kind": "admit", "cycle": 2, "request": 0, "client": 1,
             "tenant": "1", "size": 6},
            {"seq": 1, "kind": "dispatch", "cycle": 2, "batch": 0,
             "requests": [0], "size": 6, "conflicts": 0},
        ]
        lines = [json.dumps({"format": 1, "type": "serve_journal"})]
        for rec in records:
            lines.append(json.dumps({"crc": _old_crc(rec), "rec": rec}))
        path = tmp_path / "j.jsonl"
        path.write_text("\n".join(lines) + "\n")
        j = ServeJournal.recover(path)
        assert j.records == records
        # appending continues in the canonical layout after the old lines
        j.record("retire", 5, request=0)
        j.close()
        again = ServeJournal.recover(path)
        assert [r["kind"] for r in again.records] == ["admit", "dispatch", "retire"]
        again.close()

    def test_flipped_journal_byte_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        for i in range(4):
            j.record("admit", i, request=i, size=10 + i)
        j.close()
        lines = path.read_text().splitlines()
        lines[3] = _flip_digit(lines[3], lines[3].index('"size"'))  # seqno 2
        path.write_text("\n".join(lines) + "\n")
        j2 = ServeJournal.recover(path)
        assert [r["seq"] for r in j2.records] == [0, 1]
        j2.close()
        assert len(path.read_text().splitlines()) == 3
