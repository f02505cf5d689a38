"""Self-healing fleet supervision: per-shard durability, restart, rejoin.

:class:`FleetSupervisor` wraps a :class:`~repro.fleet.coordinator.FleetCoordinator`
with the two things the coordinator deliberately does not own:

* **per-shard durability** — every shard gets its own
  :class:`~repro.serve.durability.CheckpointStore` under
  ``<state_dir>/shard-<i>/`` (checkpoints every ``checkpoint_every`` fleet
  cycles + a write-ahead journal with torn-tail recovery), plus a
  fleet-level snapshot (``fleet-<cycle>.json``) of the coordinator's own
  state — health, failover ledger, router placement, quotas, client RNGs —
  written at the same cycle boundary, so a whole-fleet crash recovers
  deterministically via :meth:`FleetSupervisor.recover`;
* **restart/rejoin** — when a shard dies, the supervisor snapshots the
  frozen engine (the *death snapshot*: the shard's measured history
  survives its death), schedules a restart ``restart_after`` cycles later
  under a per-shard budget with capped exponential backoff, and walks a
  graceful-degradation ladder to bring it back:

  1. **checkpoint** — restore the newest loadable snapshot, re-open the
     journal at its recovered tail and append;
  2. **journal** — snapshots unusable: start a fresh engine but carry the
     journal forward (request-id continuity from the journalled history);
  3. **fresh** — journal unusable too: a blank shard with a new journal;
  4. **stay dead** — everything failed: the shard is abandoned and the
     fleet serves on.  No rung ever raises out of the fleet loop.

  A restored shard is reconciled against the coordinator's failover ledger
  before rejoining (:meth:`~repro.fleet.coordinator.FleetCoordinator.rejoin`
  strips every request it held at death — all of it was settled or
  re-routed — so nothing is ever executed against the fleet counters
  twice), and the router is invited to rebalance back with bounded
  migration.

A shard journal that lived through a death + checkpoint-restore keeps the
records the restore rolled back; per-shard
:func:`~repro.serve.durability.journal_accounting` can therefore show those
superseded admissions as "lost" — the coordinator's exactly-once counters
(``arrivals == completed + quota_shed + shard_shed + fleet_shed``) are the
fleet-level source of truth.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.fleet.coordinator import FLEET_SNAPSHOT_VERSION, FleetCoordinator
from repro.fleet.report import FleetReport
from repro.host.driver import Driver
from repro.io import load_snapshot, save_snapshot
from repro.serve.clients import Client
from repro.serve.durability import (
    CheckpointStore,
    DurabilityError,
    JournalError,
    SimulatedCrash,
    diff_reports,
)
from repro.serve.engine import ServeEngine

__all__ = [
    "FleetSupervisor",
    "assert_fleet_equivalent",
    "diff_fleet_reports",
]


class FleetSupervisor:
    """Drive a fleet run with durability, restarts and whole-fleet recovery.

    Parameters
    ----------
    coordinator:
        The fleet to supervise.  The supervisor owns the step loop; drive
        it with :meth:`serve` (fresh run) or :meth:`recover` (after a
        whole-fleet crash over the same ``state_dir``).
    factory:
        Optional ``factory(shard) -> ServeEngine`` building a replacement
        engine with the shard's exact original configuration (tree, policy,
        fault schedule).  Without one, restarts restore into / re-start the
        existing dead engine object — fine in-process, but a real restart
        (new process) needs the factory.
    state_dir:
        Root of the fleet's durable state (``run.json``,
        ``fleet-<cycle>.json``, ``shard-<i>/``).  ``None`` disables
        durability: restarts still work but only the ``fresh`` rung is
        available and nothing survives a fleet crash.
    checkpoint_every:
        Fleet-cycle cadence of shard + fleet snapshots (durable runs only).
    restart_after:
        Cycles between a shard's death and its first restart attempt.
        ``None`` (default) disables restarts — pure PR-7 failover.
    restart_budget:
        Maximum restart attempts per shard per run.
    backoff / backoff_cap:
        The n-th attempt waits ``restart_after * min(backoff**n,
        backoff_cap)`` cycles — capped exponential backoff.
    retain:
        Snapshots kept per shard store (and fleet snapshots kept).
    crash_at:
        Crash-harness hook: raise
        :class:`~repro.serve.durability.SimulatedCrash` once the fleet
        clock reaches this cycle (the fleet analogue of
        :class:`~repro.serve.durability.CrashPlan`).
    """

    def __init__(
        self,
        coordinator: FleetCoordinator,
        *,
        factory=None,
        state_dir: str | Path | None = None,
        checkpoint_every: int = 100,
        restart_after: int | None = None,
        restart_budget: int = 3,
        backoff: int = 2,
        backoff_cap: int = 8,
        retain: int = 3,
        crash_at: int | None = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if restart_after is not None and restart_after < 1:
            raise ValueError(
                f"restart_after must be >= 1, got {restart_after}"
            )
        if restart_budget < 0:
            raise ValueError(f"restart_budget must be >= 0, got {restart_budget}")
        if backoff < 1:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        if backoff_cap < 1:
            raise ValueError(f"backoff_cap must be >= 1, got {backoff_cap}")
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.coordinator = coordinator
        self.factory = factory
        self.state_dir = None if state_dir is None else Path(state_dir)
        self.checkpoint_every = checkpoint_every
        self.restart_after = restart_after
        self.restart_budget = restart_budget
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retain = retain
        self.crash_at = crash_at
        self.stores: list[CheckpointStore] | None = None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self.stores = [
                CheckpointStore(self.state_dir / f"shard-{i}", retain=retain)
                for i in range(len(coordinator.shards))
            ]
        self._attempts: dict[int, int] = {}
        self._pending: dict[int, int] = {}
        self._deaths_seen = 0
        self.driver = Driver(
            coordinator,
            checkpoint_every=checkpoint_every if self.stores is not None else None,
            checkpoint=self._write_checkpoints,
            crash_at=crash_at,
            crash=self._crash,
            after_step=[self._after_step],
        )

    @property
    def cycle(self) -> int:
        """The fleet's clock (delegates to the coordinator)."""
        return self.coordinator.cycle

    @property
    def active(self) -> bool:
        """True between :meth:`start` and the fleet's natural end."""
        return self.coordinator.active

    @property
    def manifest_path(self) -> Path:
        if self.state_dir is None:
            raise DurabilityError("this supervisor has no state dir")
        return self.state_dir / "run.json"

    def _fleet_snapshot_path(self, cycle: int) -> Path:
        return self.state_dir / f"fleet-{cycle:09d}.json"

    # -- entry points ----------------------------------------------------------

    def serve(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> FleetReport:
        """Run the fleet from cycle 0 under supervision."""
        self.start(clients, max_cycles, drain=drain, drain_limit=drain_limit)
        return self._loop()

    def start(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> None:
        """Write the run manifest, start the fleet and open shard journals
        (everything :meth:`serve` does short of driving the loop)."""
        coord = self.coordinator
        if self.state_dir is not None:
            self.manifest_path.write_text(
                json.dumps(
                    {
                        "max_cycles": max_cycles,
                        "drain": drain,
                        "drain_limit": drain_limit,
                        "shards": len(coord.shards),
                    }
                )
                + "\n"
            )
        coord.start(clients, max_cycles, drain=drain, drain_limit=drain_limit)
        self._attempts = {}
        self._pending = {}
        self._deaths_seen = 0
        self.driver.last_checkpoint = -1
        if self.stores is not None:
            for shard, engine in enumerate(coord.shards):
                journal = self.stores[shard].create_journal()
                journal.profiler = engine.profiler
                engine.journal = journal

    def recover(self, clients: list[Client]) -> FleetReport:
        """Resume a crashed fleet run from ``state_dir`` and drive it home.

        The caller rebuilds the coordinator (and ``clients``) with the
        original run's configuration, exactly as
        :meth:`~repro.serve.durability.DurableServer.recover` asks for a
        single engine.  The newest fleet snapshot that can be fully
        assembled wins: every shard it lists as alive/suspected must have a
        shard snapshot at that exact cycle; dead shards restore from their
        death snapshot.  Shard journals re-open at their recovered tails
        and verify the re-executed suffix record-for-record, so recovery is
        deterministic or it is an error — never silently divergent.
        """
        if self.state_dir is None:
            raise DurabilityError("this supervisor has no state dir")
        if not self.manifest_path.exists():
            raise DurabilityError(
                f"{self.state_dir} holds no run manifest; nothing to recover"
            )
        manifest = json.loads(self.manifest_path.read_text())
        if int(manifest["shards"]) != len(self.coordinator.shards):
            raise DurabilityError(
                f"manifest covers {manifest['shards']} shards; this fleet "
                f"has {len(self.coordinator.shards)}"
            )
        candidates = sorted(self.state_dir.glob("fleet-*.json"), reverse=True)
        last_error: Exception | None = None
        for path in candidates:
            try:
                payload = load_snapshot(path)
                self._restore_fleet(payload, clients, manifest)
            except (DurabilityError, ValueError, KeyError) as exc:
                last_error = exc
                continue  # torn/unassemblable boundary: fall back to older
            break
        else:
            raise DurabilityError(
                f"{self.state_dir} holds no recoverable fleet snapshot"
                + (f" (last failure: {last_error})" if last_error else "")
            )
        rec = self.coordinator.recorder
        if rec.enabled:
            rec.event(
                "restore",
                cycle=self.coordinator.cycle,
                snapshot=self.coordinator.cycle,
                fleet=True,
            )
        return self._loop()

    def _restore_fleet(self, payload: dict, clients, manifest: dict) -> None:
        if payload.get("version") != FLEET_SNAPSHOT_VERSION:
            raise DurabilityError(
                f"fleet snapshot version {payload.get('version')} unsupported"
            )
        coord = self.coordinator
        fleet_state = payload["fleet"]
        cycle = int(fleet_state["cycle"])
        health = [str(h) for h in fleet_state["health"]]
        if len(health) != len(coord.shards):
            raise DurabilityError("fleet snapshot shard count mismatch")
        # assemble first (any miss falls back to an older fleet boundary),
        # mutate only once every required shard snapshot is in hand
        chosen = []
        for shard, state in enumerate(health):
            snap = self.stores[shard].latest_snapshot(max_cycle=cycle)
            if state in ("alive", "suspected"):
                if snap is None or snap.cycle != cycle:
                    raise DurabilityError(
                        f"shard {shard} has no snapshot at fleet cycle {cycle}"
                    )
            chosen.append(snap)
        for shard, (state, snap) in enumerate(zip(health, chosen)):
            engine = self._build_engine(shard)
            feed = coord.feed(shard)
            if snap is not None:
                engine.restore(snap, [feed])
            else:
                # a shard that died before its first checkpoint and whose
                # death snapshot is gone: serve on with an empty history
                engine.start(
                    [feed],
                    int(manifest["max_cycles"]),
                    drain=bool(manifest["drain"]),
                    drain_limit=int(manifest["drain_limit"]),
                )
                engine.deactivate()
            coord.shards[shard] = engine
            if state in ("alive", "suspected"):
                journal = self.stores[shard].recover_journal()
                journal.seek_replay(snap.seqno)
                journal.profiler = engine.profiler
                engine.journal = journal
        coord.load_state(fleet_state, clients)
        sup = payload.get("supervisor", {})
        self._attempts = {
            int(s): int(n) for s, n in sup.get("attempts", {}).items()
        }
        self._pending = {
            int(s): int(c) for s, c in sup.get("pending", {}).items()
        }
        self._deaths_seen = int(sup.get("deaths_seen", len(coord._dead)))
        self.driver.last_checkpoint = cycle

    # -- the supervised loop ---------------------------------------------------

    def step(self) -> bool:
        """One supervised fleet cycle: checkpoint, step, note deaths, run
        due restarts (all owned by the driver).  ``False`` once the fleet
        is done."""
        return self.driver.tick()

    def _loop(self) -> FleetReport:
        self.driver.loop()
        return self.finish()

    def finish(self) -> FleetReport:
        """Verify shard journals drained, close them, fold the fleet report."""
        coord = self.coordinator
        for shard, engine in enumerate(coord.shards):
            if engine.journal is None:
                continue
            if engine.journal.replaying and coord._steppable(shard):
                raise JournalError(
                    f"shard {shard}'s journal holds "
                    f"{engine.journal.replay_total} records past the end of "
                    f"the recovered run — the histories disagree"
                )
            engine.journal.close()
        return coord.finish()

    def _crash(self, coord: FleetCoordinator) -> None:
        raise SimulatedCrash(f"fleet crash injected at cycle {coord.cycle}")

    def _after_step(self, coord: FleetCoordinator) -> None:
        self._note_deaths()
        self._run_due_restarts()

    def _write_checkpoints(self, coord: FleetCoordinator) -> None:
        cycle = coord.cycle
        rec = coord.recorder
        if rec.enabled:
            rec.event("checkpoint", cycle=cycle, fleet=True)
        for shard, engine in enumerate(coord.shards):
            if coord._steppable(shard):
                self.stores[shard].write_snapshot(engine)
        self._write_fleet_snapshot(cycle)

    def _write_fleet_snapshot(self, cycle: int) -> None:
        payload = {
            "version": FLEET_SNAPSHOT_VERSION,
            "fleet": self.coordinator.state_dict(),
            "supervisor": {
                "attempts": {str(s): n for s, n in self._attempts.items()},
                "pending": {str(s): c for s, c in self._pending.items()},
                "deaths_seen": self._deaths_seen,
            },
        }
        save_snapshot(payload, self._fleet_snapshot_path(cycle))
        for stale in sorted(self.state_dir.glob("fleet-*.json"))[: -self.retain]:
            stale.unlink()

    def _note_deaths(self) -> None:
        """React to shards the last step declared dead: freeze their history
        to disk (the death snapshot) and schedule a restart."""
        coord = self.coordinator
        newly_dead = coord._dead[self._deaths_seen :]
        self._deaths_seen = len(coord._dead)
        for shard in newly_dead:
            engine = coord.shards[shard]
            if self.stores is not None:
                try:
                    # unconditional: the dead shard's measured history must
                    # survive both its own restart and a whole-fleet crash
                    self.stores[shard].write_snapshot(engine)
                except OSError:
                    pass  # a failed death snap degrades recovery, not the run
                if engine.journal is not None:
                    engine.journal.close()
                    engine.journal = None
            attempts = self._attempts.get(shard, 0)
            if self.restart_after is None or attempts >= self.restart_budget:
                continue
            delay = self.restart_after * min(
                self.backoff**attempts, self.backoff_cap
            )
            self._pending[shard] = coord._death_cycle[shard] + delay

    def _run_due_restarts(self) -> None:
        if not self._pending:
            return
        coord = self.coordinator
        cycle = coord.cycle
        due = sorted(s for s, at in self._pending.items() if cycle >= at)
        for shard in due:
            del self._pending[shard]
            if not coord.active:
                continue
            self._attempts[shard] = self._attempts.get(shard, 0) + 1
            self._restore_shard(shard)

    # -- the degradation ladder ------------------------------------------------

    def _build_engine(self, shard: int) -> ServeEngine:
        if self.factory is not None:
            return self.factory(shard)
        return self.coordinator.shards[shard]

    def _restore_shard(self, shard: int) -> bool:
        """Walk the restore ladder; ``True`` iff the shard rejoined."""
        coord = self.coordinator
        coord.begin_restore(shard)
        feed = coord.feed(shard)
        store = None if self.stores is None else self.stores[shard]
        rec = coord.recorder
        # rung 1: newest loadable checkpoint + journal tail
        if store is not None:
            try:
                snapshot = store.latest_snapshot()
                if snapshot is not None:
                    engine = self._build_engine(shard)
                    engine.restore(snapshot, [feed])
                    journal = store.recover_journal()
                    journal.profiler = engine.profiler
                    engine.journal = journal
                    coord.rejoin(shard, engine, how="checkpoint")
                    if rec.enabled:
                        rec.event(
                            "shard_restore",
                            cycle=coord.cycle,
                            shard=shard,
                            how="checkpoint",
                            snapshot=snapshot.cycle,
                        )
                    return True
            except Exception:
                pass  # ladder: fall through, never crash the fleet
        # rung 2: journal-only — fresh engine, id continuity from the WAL
        if store is not None:
            try:
                journal = store.recover_journal()
                engine = self._build_engine(shard)
                engine.start(
                    [feed],
                    coord._max_cycles,
                    drain=coord._drain,
                    drain_limit=coord._drain_limit,
                )
                admitted = [
                    int(entry["request"])
                    for entry in journal.records
                    if entry.get("kind") == "admit"
                    and entry.get("request") is not None
                ]
                if admitted:
                    engine.reserve_ids(max(admitted) + 1)
                journal.profiler = engine.profiler
                engine.journal = journal
                coord.rejoin(shard, engine, how="journal")
                if rec.enabled:
                    rec.event(
                        "shard_restore",
                        cycle=coord.cycle,
                        shard=shard,
                        how="journal",
                    )
                return True
            except Exception:
                pass
        # rung 3: a blank shard
        try:
            engine = self._build_engine(shard)
            engine.start(
                [feed],
                coord._max_cycles,
                drain=coord._drain,
                drain_limit=coord._drain_limit,
            )
            if store is not None:
                journal = store.create_journal()
                journal.profiler = engine.profiler
                engine.journal = journal
            coord.rejoin(shard, engine, how="fresh")
            if rec.enabled:
                rec.event(
                    "shard_restore", cycle=coord.cycle, shard=shard, how="fresh"
                )
            return True
        except Exception:
            # rung 4: stay dead — the fleet serves on without the shard
            coord.abandon_restore(shard)
            if rec.enabled:
                rec.event(
                    "shard_restore",
                    cycle=coord.cycle,
                    shard=shard,
                    how="abandoned",
                )
            return False


# -- fleet run equivalence -----------------------------------------------------

#: FleetReport fields excluded from equivalence (host-dependent wall clock)
FLEET_WALL_CLOCK_FIELDS = frozenset({"wall_time_s"})


def diff_fleet_reports(a: FleetReport, b: FleetReport) -> list[str]:
    """Field-by-field differences between two fleet reports, wall-clock and
    per-shard wall-clock excluded.  Empty list = equivalent."""
    diffs: list[str] = []
    for f in dataclasses.fields(FleetReport):
        if f.name in FLEET_WALL_CLOCK_FIELDS:
            continue
        if f.name == "shard_reports":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            diffs.append(f"{f.name}: {va!r} != {vb!r}")
    if len(a.shard_reports) != len(b.shard_reports):
        diffs.append(
            f"shard_reports: {len(a.shard_reports)} != {len(b.shard_reports)}"
        )
    else:
        for shard, (ra, rb) in enumerate(zip(a.shard_reports, b.shard_reports)):
            diffs.extend(
                f"shard {shard} {line}" for line in diff_reports(ra, rb)
            )
    return diffs


def assert_fleet_equivalent(a: FleetReport, b: FleetReport) -> None:
    """Raise :class:`DurabilityError` naming the first divergence."""
    diffs = diff_fleet_reports(a, b)
    if diffs:
        raise DurabilityError("fleet reports differ: " + "; ".join(diffs))
