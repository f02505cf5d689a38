"""Crash-consistent serving: checkpoints, write-ahead journal, recovery.

The serving engine is deterministic by construction — the paper's COLOR
mapping is a pure function, the cycle loop is barrier-synchronous, and every
random draw (client traffic, the fault drop lottery) comes from a seeded
generator whose position is part of the state.  That makes *bit-exact*
crash recovery provable rather than merely plausible, and this module
proves it with three pieces:

:class:`EngineSnapshot`
    the versioned envelope of one checkpoint: the cycle it was taken at,
    the journal position it covers, and the engine's own
    :meth:`~repro.serve.engine.ServeEngine.state_dict` (request table, id
    counter, admission queue, SLO counters, module queues and port clocks,
    fault-schedule cursor, repair-cache keys, every RNG state).
    :meth:`ServeEngine.checkpoint` / :meth:`ServeEngine.restore` round-trip
    through it; :func:`repro.io.save_snapshot` adds a CRC and an atomic
    write.

:class:`ServeJournal`
    an append-only JSONL write-ahead log of ``admit`` / ``dispatch`` /
    ``retire`` / ``shed`` / ``retry`` records with monotone seqnos, cycle
    stamps and per-record CRCs.  Because re-execution from a snapshot is
    bit-exact, the journal is not needed to *reconstruct* state — it is the
    independent witness recovery verifies itself against: during replay
    every record the resumed run emits is compared to the journalled one,
    and any divergence raises :class:`JournalError` instead of silently
    serving a different history.  On reload a torn tail (the record being
    appended when the process died) is detected and truncated.

:class:`CrashPlan` / :class:`DurableServer` / :func:`run_with_recovery`
    the crash harness: a supervisor that checkpoints every ``N`` cycles,
    kills the run at an arbitrary cycle — including mid-batch (any cycle
    with a batch in flight) and mid-checkpoint (a torn snapshot at the
    final path) — then restarts from the latest valid snapshot, replays
    the journal in verify mode, and continues to the end.
    :func:`assert_equivalent` then proves the recovered run's
    :class:`~repro.serve.slo.ServeReport` and obs event stream match an
    uninterrupted seeded run cycle-for-cycle, and
    :func:`journal_accounting` proves exactly-once request accounting
    (nothing lost, nothing retired twice).

Control-plane telemetry (``checkpoint`` / ``restore`` / ``journal_replay``
events) rides the system's :mod:`repro.obs` recorder and is excluded from
equivalence comparison via :data:`CONTROL_EVENTS`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.host.driver import Driver
from repro.io import (
    checksummed_json,
    load_snapshot,
    save_snapshot,
    snapshot_document,
)
from repro.obs.perf import NULL_PROFILER
from repro.serve.clients import Client
from repro.serve.slo import WALL_CLOCK_FIELDS, ServeReport

if TYPE_CHECKING:  # the engine imports this module for its snapshot envelope
    from repro.serve.engine import ServeEngine

__all__ = [
    "CONTROL_EVENTS",
    "CRASH_MODES",
    "CheckpointStore",
    "CrashPlan",
    "DurabilityError",
    "DurableServer",
    "EngineSnapshot",
    "JOURNAL_COMPAT_FIELDS",
    "JournalError",
    "RecoveryResult",
    "ServeJournal",
    "SimulatedCrash",
    "assert_equivalent",
    "diff_reports",
    "filter_control",
    "journal_accounting",
    "run_with_recovery",
]

SNAPSHOT_VERSION = 1
JOURNAL_FORMAT = 1

#: obs event kinds emitted by the durability layer itself; excluded from
#: run-equivalence comparison (an uninterrupted run has no reason to carry
#: them, and a recovered one necessarily does)
CONTROL_EVENTS = frozenset({"checkpoint", "restore", "journal_replay"})

#: journal-record fields added after the format froze: a journal written by
#: an engine that predates them replays clean against an engine that emits
#: them (the field is ignored iff the journalled record lacks it)
JOURNAL_COMPAT_FIELDS = frozenset({"tenant"})


def _compat_equal(journalled: dict, emitted: dict) -> bool:
    """Record equality modulo :data:`JOURNAL_COMPAT_FIELDS` the journalled
    record predates."""
    missing = {
        key
        for key in JOURNAL_COMPAT_FIELDS
        if key in emitted and key not in journalled
    }
    if not missing:
        return False  # nothing to forgive; exact comparison already failed
    return {k: v for k, v in emitted.items() if k not in missing} == journalled


class DurabilityError(RuntimeError):
    """A snapshot or recovery invariant was violated."""


class JournalError(DurabilityError):
    """Journal replay diverged from the journalled history (nondeterminism)."""


class SimulatedCrash(RuntimeError):
    """Raised by the crash harness at the planned kill point."""


# -- engine snapshot -----------------------------------------------------------


@dataclass(frozen=True)
class EngineSnapshot:
    """The versioned envelope of one serving-run checkpoint.

    ``cycle`` is the next cycle the restored run will execute; ``seqno`` is
    the journal position the snapshot covers (every record with a smaller
    seqno is already folded into the state, every later one will be
    re-emitted — and verified — by re-execution).  ``state`` is the
    engine's :meth:`~repro.serve.engine.ServeEngine.state_dict`.  Take one
    with :meth:`ServeEngine.checkpoint`, resume with
    :meth:`ServeEngine.restore`, persist ``to_json()`` with
    :func:`repro.io.save_snapshot`.
    """

    version: int
    cycle: int
    seqno: int
    state: dict

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "cycle": self.cycle,
            "seqno": self.seqno,
            "state": self.state,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "EngineSnapshot":
        return cls(
            version=int(payload["version"]),
            cycle=int(payload["cycle"]),
            seqno=int(payload["seqno"]),
            state=payload["state"],
        )


# -- write-ahead journal -------------------------------------------------------


class ServeJournal:
    """Append-only JSONL write-ahead log of serving lifecycle records.

    Layout: a header line ``{"format": 1, "type": "serve_journal"}``, then
    one line per record — ``{"crc": <crc32 of the canonical record>,
    "rec": {"cycle": ..., "kind": ..., "seq": n, ...}}`` — flushed per
    append, so at most the final record can be torn by a crash.  ``rec``
    is written in its canonical encoding (the text the CRC covers, see
    :func:`repro.io.checksummed_json`); :meth:`recover` re-canonicalises
    what it parses, so journals with records in any key order load.

    Two modes share :meth:`record`: *append* (normal operation — the record
    is written and flushed) and *verify* (recovery — the record the resumed
    run emits is compared against the journalled one at the same seqno, and
    a mismatch raises :class:`JournalError`).  :meth:`seek_replay` arms
    verify mode for the records between a snapshot's seqno and the journal
    tail; once the run re-emits all of them, appending resumes seamlessly.
    """

    def __init__(self, path: Path, fh, records: list[dict]):
        self.path = Path(path)
        self._fh = fh
        self.records = records
        self._next = len(records)
        self._replay_upto = 0
        self._replay_from = 0
        #: wall-clock profiler for append+flush cost (``journal`` span);
        #: :class:`DurableServer` wires the engine's profiler in here
        self.profiler = NULL_PROFILER

    @classmethod
    def create(cls, path: str | Path) -> "ServeJournal":
        """Start a fresh journal, truncating anything at ``path``."""
        path = Path(path)
        fh = path.open("w", encoding="utf-8")
        fh.write(json.dumps({"format": JOURNAL_FORMAT, "type": "serve_journal"}) + "\n")
        fh.flush()
        return cls(path, fh, [])

    @classmethod
    def recover(cls, path: str | Path) -> "ServeJournal":
        """Reload a journal after a crash: keep the valid prefix, truncate
        the torn tail (partial line, bad CRC, or seqno gap), reopen for
        appending."""
        path = Path(path)
        raw = path.read_bytes()
        records: list[dict] = []
        header_ok = False
        good_end = 0
        pos = 0
        for line in raw.splitlines(keepends=True):
            end = pos + len(line)
            if not line.endswith(b"\n"):
                break  # partial final line: the append the crash interrupted
            data = line.strip()
            if not data:
                break  # we never write blank lines; treat as corruption
            try:
                doc = json.loads(data)
            except json.JSONDecodeError:
                break
            if not header_ok:
                if not (
                    isinstance(doc, dict)
                    and doc.get("type") == "serve_journal"
                    and doc.get("format") == JOURNAL_FORMAT
                ):
                    raise DurabilityError(f"{path} is not a serve journal")
                header_ok = True
            else:
                rec = doc.get("rec") if isinstance(doc, dict) else None
                if (
                    not isinstance(rec, dict)
                    or doc.get("crc") != checksummed_json(rec)[1]
                    or rec.get("seq") != len(records)
                ):
                    break
                records.append(rec)
            good_end = end
            pos = end
        if not header_ok:
            raise DurabilityError(f"{path} has no valid journal header")
        if good_end < len(raw):
            with path.open("r+b") as trunc:
                trunc.truncate(good_end)
        fh = path.open("a", encoding="utf-8")
        return cls(path, fh, records)

    # -- positions -------------------------------------------------------------

    @property
    def position(self) -> int:
        """Seqno the next record will carry (== records logically written)."""
        return self._next

    @property
    def replaying(self) -> bool:
        """Whether :meth:`record` is still verifying journalled records."""
        return self._next < self._replay_upto

    @property
    def replay_total(self) -> int:
        """Records the current recovery must re-emit and verify."""
        return self._replay_upto - self._replay_from

    def seek_replay(self, seqno: int) -> None:
        """Arm verify mode from ``seqno`` (a snapshot's coverage point) to
        the journal tail."""
        if not 0 <= seqno <= len(self.records):
            raise JournalError(
                f"snapshot covers seqno {seqno} but the journal only holds "
                f"{len(self.records)} records — journal and snapshots disagree"
            )
        self._next = seqno
        self._replay_from = seqno
        self._replay_upto = len(self.records)

    # -- recording -------------------------------------------------------------

    def record(self, kind: str, cycle: int, **fields) -> None:
        """Append one record — or, during replay, verify it byte-for-byte.

        One deliberate relaxation: fields in :data:`JOURNAL_COMPAT_FIELDS`
        that a journal written by an older engine never recorded are ignored
        during verification, so adding such a field does not invalidate
        existing journals.  A journal that *does* carry the field is still
        compared exactly.
        """
        rec = {"seq": self._next, "kind": kind, "cycle": cycle}
        rec.update(fields)
        if self._next < self._replay_upto:
            expected = self.records[self._next]
            if expected != rec and not _compat_equal(expected, rec):
                raise JournalError(
                    f"replay diverged at seqno {self._next}: the journal "
                    f"holds {expected!r} but the resumed run emitted {rec!r}"
                )
            self._next += 1
            return
        self.records.append(rec)
        self._next += 1
        with self.profiler.span("journal"):
            text, crc = checksummed_json(rec)
            self._fh.write(f'{{"crc": {crc}, "rec": {text}}}\n')
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- crash harness + supervisor ------------------------------------------------

CRASH_MODES = ("instant", "mid_checkpoint", "torn_journal")


@dataclass(frozen=True)
class CrashPlan:
    """Kill the run when its cycle counter reaches ``at_cycle``.

    ``mode`` selects what the dying process leaves behind:

    * ``"instant"`` — clean kill between writes (any cycle, including one
      with a batch in flight — the mid-batch case);
    * ``"mid_checkpoint"`` — a torn snapshot file at the *final* path, as
      if the process died halfway through an unprotected snapshot write;
      recovery must detect it and fall back to the previous snapshot;
    * ``"torn_journal"`` — a partial record appended to the journal tail;
      recovery must truncate it.
    """

    at_cycle: int
    mode: str = "instant"

    def __post_init__(self) -> None:
        if self.at_cycle < 0:
            raise ValueError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if self.mode not in CRASH_MODES:
            raise ValueError(
                f"unknown crash mode {self.mode!r}; pick from {CRASH_MODES}"
            )


class CheckpointStore:
    """One state directory's checkpoint + journal layout.

    Owns the on-disk naming scheme (``journal.jsonl``, ``snap-<cycle>.json``),
    snapshot writes with retention pruning, and the recovery-side selection
    of the newest snapshot that still loads cleanly.
    :class:`DurableServer` keeps one for its state dir; the fleet
    supervisor (:class:`~repro.fleet.supervisor.FleetSupervisor`) gives
    every shard its own under ``<state_dir>/shard-<i>/``.
    """

    def __init__(self, state_dir: str | Path, retain: int = 3):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.retain = retain

    @property
    def journal_path(self) -> Path:
        return self.state_dir / "journal.jsonl"

    def snapshot_path(self, cycle: int) -> Path:
        return self.state_dir / f"snap-{cycle:09d}.json"

    def create_journal(self) -> "ServeJournal":
        return ServeJournal.create(self.journal_path)

    def recover_journal(self) -> "ServeJournal":
        return ServeJournal.recover(self.journal_path)

    def write_snapshot(self, engine: ServeEngine) -> EngineSnapshot:
        """Capture + persist the engine at its current cycle, then prune.

        The capture and write run under the engine's ``checkpoint``
        profiler span, so durable fleets report checkpoint wall-cost the
        same way :class:`DurableServer` does.
        """
        with engine.profiler.span("checkpoint"):
            snapshot = engine.checkpoint()
            save_snapshot(snapshot.to_json(), self.snapshot_path(snapshot.cycle))
        self.prune()
        return snapshot

    def prune(self) -> None:
        for stale in sorted(self.state_dir.glob("snap-*.json"))[: -self.retain]:
            stale.unlink()

    def latest_snapshot(self, max_cycle: int | None = None) -> EngineSnapshot | None:
        """Newest snapshot that loads and checksums cleanly, else ``None``.

        ``max_cycle`` bounds the search: fleet recovery must not restore a
        shard *past* the fleet-checkpoint cycle it is rejoining.
        """
        for path in sorted(self.state_dir.glob("snap-*.json"), reverse=True):
            try:
                snapshot = EngineSnapshot.from_json(load_snapshot(path))
            except (ValueError, KeyError):
                continue  # torn or corrupt: fall back to an older snapshot
            if max_cycle is not None and snapshot.cycle > max_cycle:
                continue
            return snapshot
        return None


class DurableServer:
    """Supervises a serving run with periodic checkpoints and a WAL.

    ``state_dir`` accumulates ``run.json`` (the run's arguments),
    ``journal.jsonl`` and ``snap-<cycle>.json`` files (``retain`` newest
    kept).  :meth:`serve` starts a fresh run; after a crash, build a *new*
    engine + clients with the same configuration and call :meth:`recover`
    on a new supervisor over the same ``state_dir``.

    Checkpoints cost zero simulated cycles — they happen between engine
    steps — so their overhead is wall-clock only, tracked in
    :attr:`checkpoint_seconds` against :attr:`run_seconds`.
    """

    def __init__(
        self,
        engine: ServeEngine,
        clients: list[Client],
        state_dir: str | Path,
        checkpoint_every: int = 100,
        crash_plan: CrashPlan | None = None,
        retain: int = 3,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.engine = engine
        self.clients = list(clients)
        self.store = CheckpointStore(state_dir, retain=retain)
        self.state_dir = self.store.state_dir
        self.checkpoint_every = checkpoint_every
        self.crash_plan = crash_plan
        self.retain = retain
        self.journal: ServeJournal | None = None
        self.checkpoint_seconds = 0.0
        self.run_seconds = 0.0
        self.checkpoints_written = 0
        self.replayed_records = 0
        self.driver = Driver(
            engine,
            checkpoint_every=checkpoint_every,
            checkpoint=lambda target: self._write_checkpoint(),
            crash_at=crash_plan.at_cycle if crash_plan is not None else None,
            crash=(lambda target: self._crash(self.crash_plan))
            if crash_plan is not None
            else None,
        )

    @property
    def journal_path(self) -> Path:
        return self.store.journal_path

    @property
    def manifest_path(self) -> Path:
        return self.state_dir / "run.json"

    @property
    def checkpoint_overhead(self) -> float:
        """Wall-clock fraction the run spent writing checkpoints."""
        return (
            self.checkpoint_seconds / self.run_seconds if self.run_seconds else 0.0
        )

    # -- entry points ----------------------------------------------------------

    def serve(
        self,
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> ServeReport:
        """Run from cycle 0 with checkpoints + journal in ``state_dir``."""
        self.begin_serve(max_cycles, drain=drain, drain_limit=drain_limit)
        return self._loop()

    def begin_serve(
        self,
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> None:
        """Arm a fresh durable run without driving it.

        Writes the run manifest, creates the journal and starts the engine;
        the caller then owns the loop — :meth:`serve` drives it to the end
        via :meth:`_loop`, while the daemon (:mod:`repro.host.daemon`) pumps
        ``self.driver.tick()`` from asyncio one boundary at a time.
        """
        self.manifest_path.write_text(
            json.dumps(
                {
                    "max_cycles": max_cycles,
                    "drain": drain,
                    "drain_limit": drain_limit,
                }
            )
            + "\n"
        )
        self.journal = self.store.create_journal()
        self.journal.profiler = self.engine.profiler
        self.engine.journal = self.journal
        self.engine.start(
            self.clients, max_cycles, drain=drain, drain_limit=drain_limit
        )

    def recover(self) -> ServeReport:
        """Resume a crashed run from ``state_dir`` and drive it to the end.

        Protocol: load the newest snapshot that passes its CRC (skipping
        torn ones), truncate the journal's torn tail, restore the engine,
        re-execute with the journal in verify mode until the crash point is
        passed, then continue appending.  With no usable snapshot the run
        re-executes from cycle 0 (cold start) under the same verification.
        """
        if not self.manifest_path.exists():
            raise DurabilityError(
                f"{self.state_dir} holds no run manifest; nothing to recover"
            )
        manifest = json.loads(self.manifest_path.read_text())
        self.journal = self.store.recover_journal()
        self.journal.profiler = self.engine.profiler
        engine = self.engine
        snapshot = self.store.latest_snapshot()
        if snapshot is None:
            self.journal.seek_replay(0)
            engine.journal = self.journal
            engine.start(
                self.clients,
                int(manifest["max_cycles"]),
                drain=bool(manifest["drain"]),
                drain_limit=int(manifest["drain_limit"]),
            )
            restored_from = None
        else:
            engine.restore(snapshot, self.clients)
            self.journal.seek_replay(snapshot.seqno)
            engine.journal = self.journal
            self.driver.last_checkpoint = snapshot.cycle
            restored_from = snapshot.cycle
        rec = engine.system.recorder
        if rec.enabled:
            rec.event(
                "restore",
                cycle=engine.cycle,
                snapshot=restored_from,
                seqno=self.journal.position,
            )
        return self._loop()

    # -- the supervised loop ---------------------------------------------------

    def _replay_watch(self):
        """After-step hook that notices the journal leaving replay mode.

        Fresh per :meth:`_loop` call: it latches whether the journal was
        replaying when the loop began, and on the step where replay
        completes records ``replayed_records`` and emits the one-time
        ``journal_replay`` event.
        """
        journal = self.journal
        state = {"pending": journal.replaying}

        def watch(engine) -> None:
            if state["pending"] and not journal.replaying:
                state["pending"] = False
                self.replayed_records = journal.replay_total
                rec = engine.system.recorder
                if rec.enabled:
                    rec.event(
                        "journal_replay",
                        cycle=engine.cycle,
                        records=journal.replay_total,
                    )

        return watch

    def _loop(self) -> ServeReport:
        engine = self.engine
        journal = self.journal
        driver = self.driver
        driver.after_step = [self._replay_watch()]
        started = time.perf_counter()
        try:
            driver.loop()
            if journal.replaying:
                raise JournalError(
                    f"the journal holds {journal.replay_total} records past "
                    f"the end of the recovered run — the histories disagree"
                )
            return engine.finish()
        finally:
            self.run_seconds += time.perf_counter() - started
            journal.close()

    def _write_checkpoint(self) -> None:
        engine = self.engine
        rec = engine.system.recorder
        if rec.enabled:
            # emitted before capture, so the snapshot itself remembers that
            # a checkpoint happened here (WAL convention: log, then act)
            rec.event(
                "checkpoint", cycle=engine.cycle, seqno=self.journal.position
            )
        started = time.perf_counter()
        self.store.write_snapshot(engine)
        self.checkpoint_seconds += time.perf_counter() - started
        self.checkpoints_written += 1
        self.driver.last_checkpoint = engine.cycle

    def _crash(self, plan: CrashPlan) -> None:
        engine = self.engine
        if plan.mode == "mid_checkpoint":
            # a torn snapshot at the final path, as if the writer died
            # mid-write with no atomic-rename protection
            doc = snapshot_document(engine.checkpoint().to_json())
            self.store.snapshot_path(engine.cycle).write_text(doc[: len(doc) // 2])
        elif plan.mode == "torn_journal":
            # a partial record at the journal tail (no trailing newline)
            self.journal._fh.write('{"crc": 1234567, "rec": {"seq": ')
            self.journal._fh.flush()
        raise SimulatedCrash(
            f"simulated crash at cycle {engine.cycle} ({plan.mode})"
        )


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of :func:`run_with_recovery`."""

    report: ServeReport
    crashed: bool
    server: DurableServer


def run_with_recovery(
    factory,
    state_dir: str | Path,
    max_cycles: int,
    *,
    drain: bool = True,
    drain_limit: int = 1_000_000,
    checkpoint_every: int = 100,
    crash_plan: CrashPlan | None = None,
    retain: int = 3,
) -> RecoveryResult:
    """Serve under a crash plan; on crash, rebuild and recover to the end.

    ``factory`` must return a fresh ``(engine, clients)`` pair with the
    exact configuration of the original run each time it is called — it
    plays the role of restarting the process.  Returns the final report
    (recovered, if a crash fired) plus the supervisor that produced it.
    """
    engine, clients = factory()
    server = DurableServer(
        engine,
        clients,
        state_dir,
        checkpoint_every=checkpoint_every,
        crash_plan=crash_plan,
        retain=retain,
    )
    try:
        report = server.serve(max_cycles, drain=drain, drain_limit=drain_limit)
        return RecoveryResult(report=report, crashed=False, server=server)
    except SimulatedCrash:
        pass
    engine, clients = factory()
    server = DurableServer(
        engine,
        clients,
        state_dir,
        checkpoint_every=checkpoint_every,
        retain=retain,
    )
    report = server.recover()
    return RecoveryResult(report=report, crashed=True, server=server)


# -- equivalence + exactly-once accounting -------------------------------------


def filter_control(events: list[dict]) -> list[dict]:
    """Drop the durability layer's own telemetry (see :data:`CONTROL_EVENTS`)."""
    return [ev for ev in events if ev.get("ev") not in CONTROL_EVENTS]


def diff_reports(a: ServeReport, b: ServeReport) -> list[str]:
    """Field-by-field differences between two reports (empty == identical).

    Wall-clock fields (:data:`~repro.serve.slo.WALL_CLOCK_FIELDS`) are
    excluded: two bit-identical simulated histories always differ in real
    seconds, so they are not part of the equivalence claim.
    """
    out = []
    for f in dataclass_fields(ServeReport):
        if f.name in WALL_CLOCK_FIELDS:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            out.append(f"{f.name}: {va!r} != {vb!r}")
    return out

def assert_equivalent(
    baseline: tuple[ServeReport, list[dict]],
    recovered: tuple[ServeReport, list[dict]],
) -> None:
    """Prove a recovered run matches an uninterrupted one cycle-for-cycle.

    Compares the :class:`~repro.serve.slo.ServeReport` field by field and
    the obs event streams element by element (control-plane events
    excluded).  Raises :class:`DurabilityError` naming the first divergence.
    """
    report_a, events_a = baseline
    report_b, events_b = recovered
    diffs = diff_reports(report_a, report_b)
    if diffs:
        raise DurabilityError("reports differ: " + "; ".join(diffs))
    # equivalence is defined over the JSON artifact representation (a
    # restored event has list-valued fields where a live one holds tuples)
    events_a = json.loads(json.dumps(filter_control(events_a)))
    events_b = json.loads(json.dumps(filter_control(events_b)))
    for i, (ev_a, ev_b) in enumerate(zip(events_a, events_b)):
        if ev_a != ev_b:
            raise DurabilityError(
                f"event streams diverge at index {i}: {ev_a!r} != {ev_b!r}"
            )
    if len(events_a) != len(events_b):
        raise DurabilityError(
            f"event streams differ in length: baseline {len(events_a)}, "
            f"recovered {len(events_b)}"
        )


def journal_accounting(records: list[dict]) -> dict:
    """Exactly-once bookkeeping over a journal's records.

    Returns the admitted / retired / shed request-id sets plus the two
    failure lists the durability claim cares about: ``double_retired``
    (a request retired more than once — must be empty always) and ``lost``
    (admitted but neither retired nor shed — must be empty for a drained
    run).
    """
    admitted: set[int] = set()
    retired: set[int] = set()
    shed: set[int] = set()
    double_retired: list[int] = []
    for rec in records:
        kind = rec.get("kind")
        rid = rec.get("request")
        if kind == "admit":
            admitted.add(rid)
        elif kind == "retire":
            if rid in retired:
                double_retired.append(rid)
            retired.add(rid)
        elif kind == "shed":
            shed.add(rid)
    return {
        "admitted": admitted,
        "retired": retired,
        "shed": shed,
        "double_retired": double_retired,
        "lost": admitted - retired - shed,
    }
