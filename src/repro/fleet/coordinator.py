"""The fleet coordinator: N serving engines step-driven in lockstep.

:class:`FleetCoordinator` owns a row of :class:`~repro.serve.engine.ServeEngine`
shards (replicated trees, or partitioned ones — each engine brings its own
system/mapping) and drives them with the same ``start`` / ``step`` /
``finish`` contract the engines themselves expose.  Each fleet cycle:

1. **shard health edges** — every shard runs a lifecycle state machine
   (``alive → suspected → dead → restoring → alive``).  A shard whose kill
   schedule (a PR-3 :class:`~repro.memory.faults.FaultSchedule` of ``fail``
   windows covering every module) says the whole array is down is first
   *suspected* (diverted but still stepped), then — once the suspicion has
   lasted ``suspect_grace`` cycles (default 0: immediately) — declared
   *dead*: every request it held (feed backlog, admission queue, blocked
   arrivals, in-flight batch) is re-routed to the survivors, or shed at the
   fleet edge (``fleet_shed``) when no survivor remains.  A dead shard can
   come back: :meth:`FleetCoordinator.rejoin` (driven by
   :class:`~repro.fleet.supervisor.FleetSupervisor`) re-admits a restored
   engine after reconciling it against the failover ledger;
2. **fleet admission** — tenant clients are polled, arrivals are ordered by
   SLO-class weight (stable, so gold outranks bronze when they race for
   room), per-tenant outstanding-request quotas shed the excess, and the
   :class:`~repro.fleet.router.Router` places what remains onto per-shard
   :class:`ShardFeed` queues;
3. **lockstep stepping** — every alive or suspected shard advances one
   cycle, draining its feed through the normal engine arrival path (so
   shard-local admission control, batching, faults and durability all
   apply unchanged).

Fleet accounting is exactly-once: a re-routed request arrives *again* at its
new shard (shard trackers double-count it by design — each shard reports
what it saw), but the coordinator's ``routed`` / ``completed`` / ``shed``
counters track logical requests, closed by completion callbacks relayed
through the feeds.  The headline identity — ``arrivals == completed +
quota_shed + shard_shed + fleet_shed`` for a drained run — holds across any
number of kill/restart cycles: a restored shard is stripped of everything it
held at death (all of it is, by construction, either settled or re-routed),
so no request is ever executed against the fleet counters twice.

Telemetry: ``fleet_route`` / ``fleet_shed`` / ``shard_state`` /
``shard_down`` / ``shard_rejoin`` / ``fleet_reroute`` events on the
coordinator's recorder; per-shard wall-clock spans roll up naturally when
the engines share one :class:`~repro.obs.perf.PerfProfiler` (lockstep
stepping never nests spans).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.fleet.report import FleetReport
from repro.fleet.router import Router, make_router
from repro.host.driver import Driver
from repro.fleet.tenancy import TenantDirectory
from repro.memory.faults import FaultSchedule, FaultWindow
from repro.memory.stats import latency_summary
from repro.obs.events import NullRecorder
from repro.serve.clients import Client
from repro.serve.durability import DurabilityError
from repro.serve.engine import ServeEngine
from repro.serve.request import Request, instance_from_json, instance_to_json
from repro.serve.slo import SLOTracker
from repro.templates.base import TemplateInstance

__all__ = [
    "FLEET_SNAPSHOT_VERSION",
    "HEALTH_STATES",
    "FleetCoordinator",
    "ShardFeed",
    "ShardKill",
    "parse_kills",
]

FLEET_SNAPSHOT_VERSION = 1

#: the shard lifecycle states, in transition order.  ``alive`` shards take
#: traffic and step; ``suspected`` shards step but take no new placements;
#: ``dead`` shards are frozen (their held work re-routed or fleet-shed);
#: ``restoring`` is the transient supervisor-owned state between ``dead``
#: and a :meth:`FleetCoordinator.rejoin` back to ``alive``.
HEALTH_STATES = ("alive", "suspected", "dead", "restoring")


class ShardFeed(Client):
    """The bridge between fleet routing and one shard's arrival path.

    The coordinator pushes routed ``(instance, tenant)`` pairs in; the
    engine drains them via :meth:`poll_tenants` on its next step, so routed
    work flows through the shard's normal admission control.  Completion and
    shed callbacks are relayed back to the coordinator for fleet-level
    exactly-once accounting.
    """

    def __init__(self, shard_id: int, coordinator: "FleetCoordinator"):
        super().__init__(client_id=shard_id)
        self.shard_id = shard_id
        self._coordinator = coordinator
        self._incoming: deque[tuple[TemplateInstance, str]] = deque()
        #: items pushed but not yet polled by the shard, kept as the
        #: backlog changes so routing never re-sums it
        self.backlog_items = 0

    def push(self, instance: TemplateInstance, tenant: str) -> None:
        self._incoming.append((instance, tenant))
        self.backlog_items += instance.size

    def drain(self) -> list[tuple[TemplateInstance, str]]:
        """Take the un-polled backlog (when the shard dies, or to strip a
        rejoining shard's feed)."""
        out = list(self._incoming)
        self._incoming.clear()
        self.backlog_items = 0
        return out

    def poll_tenants(self, cycle: int) -> list[tuple[TemplateInstance, str | None]]:
        out = self.drain()
        self.generated += len(out)
        return out

    def poll(self, cycle: int) -> list:
        return [instance for instance, _ in self.poll_tenants(cycle)]

    def notify(self, request: Request, cycle: int) -> None:
        self._coordinator._on_complete(self.shard_id, request, cycle)

    def notify_shed(self, request: Request, cycle: int) -> None:
        self._coordinator._on_shed(self.shard_id, request, cycle)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["incoming"] = [
            {"instance": instance_to_json(instance), "tenant": tenant}
            for instance, tenant in self._incoming
        ]
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.drain()
        for entry in state.get("incoming", ()):
            self.push(instance_from_json(entry["instance"]), entry["tenant"])


@dataclass(frozen=True)
class ShardKill:
    """Schedule one shard's death: the whole module array fails at ``cycle``
    and never recovers on its own (a :meth:`FleetCoordinator.rejoin` — the
    supervisor restarting the shard — is the only way back)."""

    shard: int
    cycle: int

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.cycle < 1:
            raise ValueError(f"kill cycle must be >= 1, got {self.cycle}")

    @classmethod
    def parse(cls, spec: str) -> "ShardKill":
        """``"SHARD@CYCLE"``, or a bare ``"CYCLE"`` killing shard 0."""
        try:
            if "@" in spec:
                shard_str, _, cycle_str = spec.partition("@")
                return cls(int(shard_str), int(cycle_str))
            return cls(0, int(spec))
        except ValueError as exc:
            raise ValueError(
                f"bad kill spec {spec!r} (expected SHARD@CYCLE or CYCLE): {exc}"
            ) from exc

    def schedule(self, num_modules: int) -> FaultSchedule:
        """The kill as a fault schedule: open-ended ``fail`` windows over
        every module of the shard's array."""
        return FaultSchedule(
            [FaultWindow("fail", m, self.cycle) for m in range(num_modules)]
        )


def parse_kills(kills, num_shards: int) -> list[ShardKill]:
    """:class:`ShardKill` specs (or parseable strings), each naming a shard
    of a ``num_shards`` fleet at most once."""
    specs: list[ShardKill] = []
    for kill in kills:
        if isinstance(kill, str):
            kill = ShardKill.parse(kill)
        if not 0 <= kill.shard < num_shards:
            raise ValueError(
                f"kill names shard {kill.shard}; fleet has {num_shards} shards"
            )
        if any(spec.shard == kill.shard for spec in specs):
            raise ValueError(f"shard {kill.shard} killed twice")
        specs.append(kill)
    return specs


class FleetCoordinator:
    """Step-drive N shards behind fleet-level routing and admission.

    Parameters
    ----------
    shards:
        The engines, one per shard.  They may share a profiler (spans roll
        up) but must not share systems or recorders with each other.
    router:
        A :class:`~repro.fleet.router.Router` or registry name
        (``"round-robin"``, ``"least-loaded"``, ``"affinity"``).
    directory:
        Per-tenant quota/SLO policies; the default directory is quota-free
        best-effort.
    recorder:
        Receives ``fleet_route`` / ``fleet_shed`` / ``shard_state`` /
        ``shard_down`` / ``shard_rejoin`` / ``fleet_reroute`` events.
        Defaults to a disabled :class:`~repro.obs.events.NullRecorder`.
    kills:
        :class:`ShardKill` specs (or parseable strings).  Each is expanded
        to a full-array fault schedule; the coordinator declares the shard
        dead once the schedule has every module down for ``suspect_grace``
        consecutive cycles.
    suspect_grace:
        Cycles a fully-down shard spends *suspected* (diverted but still
        stepped) before it is declared dead and stripped of its work.  The
        default 0 kills on the first down cycle — byte-identical to the
        pre-lifecycle failover behavior.
    """

    def __init__(
        self,
        shards: list[ServeEngine],
        *,
        router: Router | str = "round-robin",
        directory: TenantDirectory | None = None,
        recorder=None,
        kills=(),
        suspect_grace: int = 0,
    ):
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        if suspect_grace < 0:
            raise ValueError(f"suspect_grace must be >= 0, got {suspect_grace}")
        self.shards = list(shards)
        self.router = make_router(router) if isinstance(router, str) else router
        self.directory = directory if directory is not None else TenantDirectory()
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.suspect_grace = suspect_grace
        self._feeds = [ShardFeed(i, self) for i in range(len(self.shards))]
        self._kills: dict[int, FaultSchedule] = {}
        self._kill_specs = parse_kills(kills, len(self.shards))
        self._clients: list[Client] = []
        self._max_cycles = 0
        self._drain = True
        self._drain_limit = 1_000_000
        self.reset()

    def reset(self) -> None:
        """Re-arm every piece of per-run state for a byte-identical re-run.

        Rebuilds the kill windows from their specs (a rejoin pops a shard's
        armed schedule — without the rebuild a re-run would never kill it),
        clears router placement state, feeds, the health machine, the
        failover ledger and every counter.  Shard engines re-arm their own
        systems — including per-shard fault cursors and drop-lottery RNGs —
        in :meth:`~repro.serve.engine.ServeEngine.start`.
        """
        self._kills = {
            kill.shard: kill.schedule(self.shards[kill.shard].system.num_modules)
            for kill in self._kill_specs
        }
        for feed in self._feeds:
            feed.drain()
            feed.generated = 0
        self.router.reset()
        self._health: list[str] = ["alive"] * len(self.shards)
        self._dead: list[int] = []
        self._rejoined: list[int] = []
        self._suspected_at: dict[int, int] = {}
        self._death_cycle: dict[int, int] = {}
        self._engine_done = [False] * len(self.shards)
        self._outstanding: dict[str, int] = {}
        self._rerouted_live: set[int] = set()
        self._arrivals = 0
        self._routed = 0
        self._quota_shed = 0
        self._rerouted = 0
        self._rerouted_completed = 0
        self._completed = 0
        self._completed_items = 0
        self._shard_shed = 0
        self._fleet_shed = 0
        self._restarts = 0
        self._reconciled = 0
        self._alive_steps = 0
        self._scheduled_steps = 0
        self._cycle = 0
        self._active = False

    # -- routing surface (used by Router implementations) ----------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def alive_shards(self) -> list[int]:
        """Sorted ids of shards still taking traffic."""
        return [s for s in range(len(self.shards)) if self._health[s] == "alive"]

    @property
    def health(self) -> list[str]:
        """Each shard's lifecycle state (see :data:`HEALTH_STATES`)."""
        return list(self._health)

    def feed(self, shard: int) -> ShardFeed:
        """The shard's arrival-path bridge (its engine's sole client)."""
        return self._feeds[shard]

    def shard_load(self, shard: int) -> int:
        """Backlog items a shard holds: routed-but-unpolled feed entries,
        admitted + blocked queue items, and the in-flight batch."""
        return self._feeds[shard].backlog_items + self.shards[shard].held_items

    def _steppable(self, shard: int) -> bool:
        return self._health[shard] in ("alive", "suspected")

    def _set_health(self, shard: int, state: str, cycle: int) -> None:
        if state not in HEALTH_STATES:
            raise ValueError(
                f"unknown health state {state!r}; pick from {HEALTH_STATES}"
            )
        previous = self._health[shard]
        if previous == state:
            return
        self._health[shard] = state
        rec = self.recorder
        if rec.enabled:
            rec.event(
                "shard_state",
                cycle=cycle,
                shard=shard,
                state=state,
                previous=previous,
            )

    # -- feed callbacks --------------------------------------------------------

    def _settle_label(self, label: str) -> None:
        count = self._outstanding.get(label, 0)
        if count > 0:
            self._outstanding[label] = count - 1

    def _settle(self, request: Request) -> None:
        self._settle_label(request.tenant if request.tenant is not None else "?")

    def _on_complete(self, shard: int, request: Request, cycle: int) -> None:
        self._completed += 1
        self._completed_items += request.size
        self._settle(request)
        key = id(request.instance)
        if key in self._rerouted_live:
            self._rerouted_live.discard(key)
            self._rerouted_completed += 1

    def _on_shed(self, shard: int, request: Request, cycle: int) -> None:
        self._shard_shed += 1
        self._settle(request)
        self._rerouted_live.discard(id(request.instance))

    # -- shard loss ------------------------------------------------------------

    def _fully_down(self, shard: int, cycle: int) -> bool:
        schedule = self._kills.get(shard)
        if schedule is None:
            return False
        num_modules = self.shards[shard].system.num_modules
        down = {
            w.module
            for w in schedule.windows
            if w.kind == "fail"
            and w.start <= cycle
            and (w.end is None or cycle < w.end)
        }
        return len(down) >= num_modules

    def _kill_shard(self, shard: int, cycle: int) -> None:
        """Declare a shard dead and move its held work to the survivors.

        The shard's engine is frozen exactly as it stood (its tracker keeps
        what it measured); the work it can no longer serve — feed backlog,
        admitted queue, blocked arrivals, the in-flight batch — re-enters
        the fleet as fresh arrivals on surviving shards.  Failover is
        at-least-once: items a dying batch already served are re-served by
        the new shard; fleet counters still count the request once.  When
        the *last* shard dies holding work there is nowhere to re-route, so
        the work is shed at the fleet edge instead: each request settles as
        ``fleet_shed`` (exactly-once — never lost, never double-counted)
        and the run finishes with a clean report.
        """
        self._set_health(shard, "dead", cycle)
        self._suspected_at.pop(shard, None)
        self._dead.append(shard)
        self._death_cycle[shard] = cycle
        engine = self.shards[shard]
        work: list[tuple[TemplateInstance, str]] = list(self._feeds[shard].drain())
        for req in engine.held_requests():
            label = req.tenant if req.tenant is not None else str(req.client_id)
            work.append((req.instance, label))
        self.router.on_shard_down(shard, self)
        rec = self.recorder
        if rec.enabled:
            rec.event("shard_down", cycle=cycle, shard=shard, rerouted=len(work))
        if not self.alive_shards:
            for instance, label in work:
                self._fleet_shed += 1
                self._settle_label(label)
                self._rerouted_live.discard(id(instance))
                if rec.enabled:
                    rec.event(
                        "fleet_shed",
                        cycle=cycle,
                        tenant=label,
                        size=instance.size,
                        reason="shard-loss",
                    )
            return
        for instance, label in work:
            target = self.router.place(label, instance, self)
            self._feeds[target].push(instance, label)
            self._rerouted += 1
            self._rerouted_live.add(id(instance))
            if rec.enabled:
                rec.event(
                    "fleet_reroute",
                    cycle=cycle,
                    tenant=label,
                    source=shard,
                    shard=target,
                    size=instance.size,
                )

    # -- restart / rejoin ------------------------------------------------------

    def begin_restore(self, shard: int) -> None:
        """Mark a dead shard *restoring* (a supervisor is rebuilding it)."""
        if self._health[shard] != "dead":
            raise ValueError(
                f"shard {shard} is {self._health[shard]!r}, not dead; "
                f"only dead shards restore"
            )
        self._set_health(shard, "restoring", self._cycle)

    def abandon_restore(self, shard: int) -> None:
        """A restore attempt failed end-to-end; the shard stays dead."""
        if self._health[shard] == "restoring":
            self._set_health(shard, "dead", self._cycle)

    def rejoin(
        self,
        shard: int,
        engine: ServeEngine | None = None,
        how: str = "checkpoint",
    ) -> int:
        """Re-admit a restored shard; returns the requests reconciled away.

        ``engine`` (if given) replaces the shard's engine — a restored or
        freshly built one; omitted, the existing engine object (restored in
        place) is re-used.  The engine is reconciled against the failover
        ledger (see :meth:`_reconcile`), its run window is aligned with the
        fleet clock, the shard's kill schedule is retired (the kill already
        fired — a rejoin is a *recovery from* it, not a reprieve), and the
        router is told via :meth:`~repro.fleet.router.Router.on_shard_up`
        so placement can rebalance back with bounded migration.
        """
        if self._health[shard] not in ("restoring", "dead"):
            raise ValueError(
                f"shard {shard} is {self._health[shard]!r}; nothing to rejoin"
            )
        if engine is not None:
            self.shards[shard] = engine
        engine = self.shards[shard]
        purged = self._reconcile(shard, engine)
        engine.align_run(self._cycle, self._max_cycles, self._drain, self._drain_limit)
        self._kills.pop(shard, None)
        self._set_health(shard, "alive", self._cycle)
        self._engine_done[shard] = False
        self._rejoined.append(shard)
        self._restarts += 1
        self.router.on_shard_up(shard, self)
        rec = self.recorder
        if rec.enabled:
            rec.event(
                "shard_rejoin",
                cycle=self._cycle,
                shard=shard,
                how=how,
                reconciled=purged,
            )
        return purged

    def _reconcile(self, shard: int, engine: ServeEngine) -> int:
        """Dedupe a restored shard against the coordinator's failover ledger.

        Everything the shard held when it died is, by construction, either
        already settled fleet-side (it completed or shed before the restore
        point rolled local time back past it) or re-routed to a survivor at
        the kill.  Serving any of it again would double-execute, so the
        restored engine is stripped of *all* held work — queue, blocked
        arrivals, in-flight table, current batch, pending completions and
        module queues; its feed re-fills with fresh routed arrivals only.
        """
        purged = engine.purge()
        self._feeds[shard].drain()
        self._reconciled += purged
        return purged

    # -- main loop -------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """The next cycle :meth:`step` will execute (0 before any work)."""
        return self._cycle

    @property
    def active(self) -> bool:
        """True between :meth:`start` and the run's natural end."""
        return self._active

    def start(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> None:
        """Arm a fresh fleet run and every shard under it."""
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        for kill in self._kill_specs:
            if kill.cycle >= max_cycles:
                raise ValueError(
                    f"shard {kill.shard} killed at cycle {kill.cycle}, but "
                    f"arrivals stop at {max_cycles}: re-routed work could "
                    f"never re-enter the surviving shards"
                )
        ids = {client.client_id for client in clients}
        if len(ids) != len(clients):
            raise ValueError("fleet client ids must be unique")
        self._clients = list(clients)
        self.reset()
        for shard, engine in enumerate(self.shards):
            # a single engine carries a non-drained run's queue into its next
            # run, but a fleet re-run must be hermetic: a shard that died
            # holding work would otherwise leak it into the re-run
            engine.purge()
            engine.start(
                [self._feeds[shard]], max_cycles, drain=drain, drain_limit=drain_limit
            )
        self._max_cycles = max_cycles
        self._drain = drain
        self._drain_limit = drain_limit
        self._active = True
        rec = self.recorder
        if rec.enabled:
            rec.set_meta(
                fleet_shards=len(self.shards),
                fleet_router=self.router.name,
                fleet_clients=len(clients),
                fleet_kills=[(k.shard, k.cycle) for k in self._kill_specs],
            )

    def step(self) -> bool:
        """Advance the fleet one cycle; ``False`` once every shard is done.

        Like the engine's :meth:`~repro.serve.engine.ServeEngine.step`, a
        ``False`` return leaves all state untouched.
        """
        if not self._active:
            return False
        cycle = self._cycle
        arriving = cycle < self._max_cycles
        if not arriving and all(
            self._engine_done[s]
            for s in range(len(self.shards))
            if self._steppable(s)
        ):
            self._active = False
            return False
        rec = self.recorder
        # 1. shard health edges (before arrivals: re-routed work re-enters
        # the surviving feeds within this cycle's arrival window)
        for shard in range(len(self.shards)):
            state = self._health[shard]
            if state not in ("alive", "suspected"):
                continue
            if self._fully_down(shard, cycle):
                if state == "alive":
                    self._set_health(shard, "suspected", cycle)
                    self._suspected_at.setdefault(shard, cycle)
                if cycle - self._suspected_at[shard] >= self.suspect_grace:
                    self._kill_shard(shard, cycle)
            elif state == "suspected":
                # the array came back before the grace expired: false alarm
                self._set_health(shard, "alive", cycle)
                self._suspected_at.pop(shard, None)
        # 2. fleet arrivals: weighted admission -> quota -> routing
        if arriving:
            batch: list[tuple[Client, TemplateInstance, str]] = []
            for client in self._clients:
                for instance, tenant in client.poll_tenants(cycle):
                    label = (
                        tenant if tenant is not None else str(client.client_id)
                    )
                    self._arrivals += 1
                    batch.append((client, instance, label))
            # stable sort: higher-weight classes claim quota and queue room
            # first; arrival order breaks ties
            batch.sort(key=lambda item: -self.directory.policy(item[2]).slo.weight)
            for client, instance, label in batch:
                if not self.alive_shards:
                    # nowhere to place it: shed at the fleet edge rather
                    # than crash the router on an empty candidate set
                    self._fleet_shed += 1
                    if rec.enabled:
                        rec.event(
                            "fleet_shed",
                            cycle=cycle,
                            tenant=label,
                            size=instance.size,
                            reason="no-capacity",
                        )
                    client.notify_shed(
                        Request(
                            request_id=-1,
                            client_id=client.client_id,
                            instance=instance,
                            arrival_cycle=cycle,
                            tenant=label,
                        ),
                        cycle,
                    )
                    continue
                policy = self.directory.policy(label)
                if (
                    policy.quota is not None
                    and self._outstanding.get(label, 0) >= policy.quota
                ):
                    self._quota_shed += 1
                    if rec.enabled:
                        rec.event(
                            "fleet_shed",
                            cycle=cycle,
                            tenant=label,
                            size=instance.size,
                            reason="quota",
                        )
                    client.notify_shed(
                        Request(
                            request_id=-1,
                            client_id=client.client_id,
                            instance=instance,
                            arrival_cycle=cycle,
                            tenant=label,
                        ),
                        cycle,
                    )
                    continue
                shard = self.router.place(label, instance, self)
                self._feeds[shard].push(instance, label)
                self._outstanding[label] = self._outstanding.get(label, 0) + 1
                self._routed += 1
                if rec.enabled:
                    rec.event(
                        "fleet_route",
                        cycle=cycle,
                        tenant=label,
                        shard=shard,
                        size=instance.size,
                        kind=instance.kind,
                    )
        # 3. lockstep: one cycle on every alive or suspected shard
        self._scheduled_steps += len(self.shards)
        self._alive_steps += len(self.alive_shards)
        for shard, engine in enumerate(self.shards):
            if self._steppable(shard):
                self._engine_done[shard] = not engine.step()
        self._cycle = cycle + 1
        return True

    def finish(self) -> FleetReport:
        """Close every shard out and merge the fleet view."""
        self._active = False
        shard_reports = [engine.finish() for engine in self.shards]
        merged = SLOTracker.merged(engine.tracker for engine in self.shards)
        cycles = self._cycle
        availability = (
            self._alive_steps / self._scheduled_steps
            if self._scheduled_steps
            else 1.0
        )
        rec = self.recorder
        if rec.enabled:
            rec.set_meta(
                fleet_cycles=cycles,
                fleet_routed=self._routed,
                fleet_rerouted=self._rerouted,
                fleet_dead_shards=list(self._dead),
                fleet_restarts=self._restarts,
            )
        return FleetReport(
            shards=len(self.shards),
            router=self.router.name,
            cycles=cycles,
            arrivals=self._arrivals,
            routed=self._routed,
            quota_shed=self._quota_shed,
            rerouted=self._rerouted,
            rerouted_completed=self._rerouted_completed,
            completed=self._completed,
            completed_items=self._completed_items,
            shard_shed=self._shard_shed,
            goodput=self._completed_items / cycles if cycles else 0.0,
            availability=availability,
            latency=latency_summary(merged.sojourns) if merged.sojourns else None,
            tenants=merged.tenant_summary(),
            classes=self._class_table(merged),
            dead_shards=list(self._dead),
            shard_reports=shard_reports,
            wall_time_s=max(
                (report.wall_time_s for report in shard_reports), default=0.0
            ),
            fleet_shed=self._fleet_shed,
            restarts=self._restarts,
            rejoined=list(self._rejoined),
            reconciled=self._reconciled,
            health=list(self._health),
        )

    def run(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> FleetReport:
        """Serve ``clients`` across the fleet for ``max_cycles`` of arrivals."""
        return Driver(self).run(
            clients, max_cycles, drain=drain, drain_limit=drain_limit
        )

    # -- fleet checkpoint ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable coordinator state at a cycle boundary.

        Shard *engine* state is deliberately not included — each shard
        engine has its own
        :meth:`~repro.serve.engine.ServeEngine.state_dict`; this captures
        everything the coordinator layers on top: health, the failover
        ledger, router placement, feeds, quotas, counters and the tenant
        clients' RNG/pacing state.  ``id()``-keyed ledger entries are
        serialized as stable locators (see :meth:`_locate_rerouted`) and
        re-linked by :meth:`load_state`.
        """
        return {
            "version": FLEET_SNAPSHOT_VERSION,
            "cycle": self._cycle,
            "max_cycles": self._max_cycles,
            "drain": self._drain,
            "drain_limit": self._drain_limit,
            "active": self._active,
            "health": list(self._health),
            "dead": list(self._dead),
            "rejoined": list(self._rejoined),
            "suspected_at": {str(s): c for s, c in self._suspected_at.items()},
            "death_cycle": {str(s): c for s, c in self._death_cycle.items()},
            "active_kills": sorted(self._kills),
            "engine_done": list(self._engine_done),
            "outstanding": dict(self._outstanding),
            "counters": {
                "arrivals": self._arrivals,
                "routed": self._routed,
                "quota_shed": self._quota_shed,
                "rerouted": self._rerouted,
                "rerouted_completed": self._rerouted_completed,
                "completed": self._completed,
                "completed_items": self._completed_items,
                "shard_shed": self._shard_shed,
                "fleet_shed": self._fleet_shed,
                "restarts": self._restarts,
                "reconciled": self._reconciled,
                "alive_steps": self._alive_steps,
                "scheduled_steps": self._scheduled_steps,
            },
            "router": {
                "name": self.router.name,
                "state": self.router.state_dict(),
            },
            "feeds": [feed.state_dict() for feed in self._feeds],
            "rerouted_live": self._locate_rerouted(),
            "clients": {
                str(client.client_id): client.state_dict()
                for client in self._clients
            },
        }

    def load_state(self, state: dict, clients: list[Client]) -> None:
        """Resume from a :meth:`state_dict` capture.

        Call *after* every shard engine has been restored to the same cycle
        boundary: the re-routed ledger re-links against the live request
        objects the engines now hold.  ``clients`` must be freshly built
        with the original run's configuration; their runtime state is
        overwritten from the snapshot.
        """
        if state.get("version") != FLEET_SNAPSHOT_VERSION:
            raise DurabilityError(
                f"fleet snapshot version {state.get('version')} unsupported "
                f"(expected {FLEET_SNAPSHOT_VERSION})"
            )
        if len(state["health"]) != len(self.shards):
            raise DurabilityError(
                f"fleet snapshot covers {len(state['health'])} shards; this "
                f"fleet has {len(self.shards)}"
            )
        snap_clients = state["clients"]
        ids = {str(client.client_id) for client in clients}
        if ids != set(snap_clients):
            raise DurabilityError(
                f"client ids {sorted(ids)} do not match the snapshot's "
                f"{sorted(snap_clients)}"
            )
        if state["router"]["name"] != self.router.name:
            raise DurabilityError(
                f"router {self.router.name!r} does not match the snapshot's "
                f"{state['router']['name']!r}"
            )
        for client in clients:
            client.load_state(snap_clients[str(client.client_id)])
        self._clients = list(clients)
        self.router.reset()
        self.router.load_state(state["router"]["state"])
        for feed, feed_state in zip(self._feeds, state["feeds"]):
            feed.load_state(feed_state)
        self._health = [str(h) for h in state["health"]]
        self._dead = [int(s) for s in state["dead"]]
        self._rejoined = [int(s) for s in state["rejoined"]]
        self._suspected_at = {
            int(s): int(c) for s, c in state["suspected_at"].items()
        }
        self._death_cycle = {
            int(s): int(c) for s, c in state["death_cycle"].items()
        }
        active = {int(s) for s in state["active_kills"]}
        self._kills = {
            kill.shard: kill.schedule(self.shards[kill.shard].system.num_modules)
            for kill in self._kill_specs
            if kill.shard in active
        }
        self._engine_done = [bool(d) for d in state["engine_done"]]
        self._outstanding = {
            str(k): int(v) for k, v in state["outstanding"].items()
        }
        counters = state["counters"]
        self._arrivals = int(counters["arrivals"])
        self._routed = int(counters["routed"])
        self._quota_shed = int(counters["quota_shed"])
        self._rerouted = int(counters["rerouted"])
        self._rerouted_completed = int(counters["rerouted_completed"])
        self._completed = int(counters["completed"])
        self._completed_items = int(counters["completed_items"])
        self._shard_shed = int(counters["shard_shed"])
        self._fleet_shed = int(counters["fleet_shed"])
        self._restarts = int(counters["restarts"])
        self._reconciled = int(counters["reconciled"])
        self._alive_steps = int(counters["alive_steps"])
        self._scheduled_steps = int(counters["scheduled_steps"])
        self._max_cycles = int(state["max_cycles"])
        self._drain = bool(state["drain"])
        self._drain_limit = int(state["drain_limit"])
        self._cycle = int(state["cycle"])
        self._active = bool(state["active"])
        self._rerouted_live = set()
        for kind, shard, key in state["rerouted_live"]:
            shard = int(shard)
            if kind == "feed":
                instance = self._feeds[shard]._incoming[int(key)][0]
                self._rerouted_live.add(id(instance))
            else:
                for req in self.shards[shard].held_requests():
                    if req.request_id == int(key):
                        self._rerouted_live.add(id(req.instance))
                        break

    def _locate_rerouted(self) -> list[list]:
        """The live re-routed ledger as JSON-stable locators.

        ``id(instance)`` does not survive serialization, so each live entry
        is written as its current address in the fleet: a feed slot
        (``["feed", shard, index]``) or an admitted request
        (``["engine", shard, request_id]``).
        """
        unresolved = set(self._rerouted_live)
        locators: list[list] = []
        if not unresolved:
            return locators
        for shard, feed in enumerate(self._feeds):
            for index, (instance, _tenant) in enumerate(feed._incoming):
                if id(instance) in unresolved:
                    unresolved.discard(id(instance))
                    locators.append(["feed", shard, index])
        for shard, engine in enumerate(self.shards):
            if not self._steppable(shard):
                # a dead engine still holds stale aliases of the instances
                # that were re-routed off it; the live copy is elsewhere
                continue
            for req in engine.held_requests():
                if id(req.instance) in unresolved:
                    unresolved.discard(id(req.instance))
                    locators.append(["engine", shard, req.request_id])
        return locators

    # -- reporting helpers -----------------------------------------------------

    def _class_table(self, merged: SLOTracker) -> dict | None:
        """Per-SLO-class completions and deadline misses, scored fleet-side
        from each tenant's sojourns against its class deadline."""
        if not merged.tenants:
            return None
        table: dict[str, dict] = {}
        for name, slo in self.directory.classes().items():
            table[name] = {
                "deadline": slo.deadline,
                "completed": 0,
                "deadline_misses": 0,
                "miss_rate": 0.0,
            }
        for label in sorted(merged.tenants):
            bucket = merged.tenants[label]
            slo = self.directory.policy(label).slo
            row = table.setdefault(
                slo.name,
                {
                    "deadline": slo.deadline,
                    "completed": 0,
                    "deadline_misses": 0,
                    "miss_rate": 0.0,
                },
            )
            row["completed"] += bucket["completed"]
            if slo.deadline is not None:
                row["deadline_misses"] += sum(
                    1 for s in bucket["sojourns"] if s > slo.deadline
                )
        for row in table.values():
            if row["completed"]:
                row["miss_rate"] = row["deadline_misses"] / row["completed"]
        return table
