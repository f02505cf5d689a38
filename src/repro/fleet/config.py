"""A fleet run as data: :class:`FleetConfig` and its one builder.

The fleet counterpart of :class:`~repro.serve.config.EngineConfig`: the
fields are the ``pmtree fleet`` flags that shape the run, with their
defaults; the JSON form is the ``config.json`` a supervised fleet keeps in
its state dir; :meth:`FleetConfig.build` is the one place a config becomes
a coordinator, its tenant population and the shard-engine factory.
``pmtree fleet``, ``recover --fleet``, the perf matrix, experiments E21
and E22 and their bench scripts all build through it (E21's noisy-neighbour
run passes its own bursty clients to the built coordinator).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ColorMapping
from repro.fleet.coordinator import FleetCoordinator, parse_kills
from repro.fleet.router import ROUTERS
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.tenancy import SLOClass, heavy_tailed_tenants
from repro.memory import ParallelMemorySystem, per_shard_schedules
from repro.obs.events import EventRecorder
from repro.serve.config import JsonConfig, checking, fault_schedule
from repro.serve.engine import ServeEngine
from repro.trees import CompleteBinaryTree

__all__ = ["FleetConfig"]


@dataclass(frozen=True)
class FleetConfig(JsonConfig):
    """Everything that determines a fleet run.

    ``kill_shard_at`` holds ``SHARD@CYCLE`` kill specs; ``restart_after``,
    ``restart_budget`` and ``checkpoint_every`` configure the
    :class:`~repro.fleet.supervisor.FleetSupervisor` of a supervised run
    (see :meth:`supervise`).

    Like :class:`~repro.serve.config.EngineConfig`, construction checks
    every spec-valued field (the workload, faults, kill specs, the
    router, policy, admission and repair names, ``cycles``,
    ``queue_capacity`` and ``batch_components`` at least 1 and
    ``arrival_rate`` at least 0) and raises
    :class:`~repro.serve.config.ConfigError` naming the first bad one.
    """

    shards: int = 4
    router: str = "affinity"
    levels: int = 10
    modules: int = 15
    policy: str = "greedy-pack"
    cycles: int = 800
    arrival_rate: float = 1.2
    workload: str = "subtree:15=1,path:9=1,level:7=1"
    tenants: int = 8
    tenant_alpha: float = 1.2
    quota: int | None = None
    gold_every: int = 0
    gold_deadline: int = 96
    gold_weight: float = 4.0
    kill_shard_at: list[str] | None = None
    queue_capacity: int = 256
    admission: str = "block"
    batch_components: int = 4
    seed: int = 0
    faults: str | None = None
    repair: str = "none"
    retry_timeout: int | None = None
    max_retries: int = 3
    obs: str | None = None
    restart_after: int | None = None
    restart_budget: int = 3
    checkpoint_every: int = 100

    def __post_init__(self) -> None:
        with checking("levels", self.levels):
            tree = CompleteBinaryTree(self.levels)
        self._check_specs(tree, self.modules)
        self._check_names(router=ROUTERS)
        with checking("kill_shard_at", self.kill_shard_at):
            parse_kills(self.kill_shard_at or (), self.shards)

    def build(self, profiler=None, recorder=None):
        """Build ``(coordinator, population, recorder, factory)``.

        Like :meth:`EngineConfig.build`, a pure function of the config:
        ``factory(shard)`` rebuilds shard ``shard``'s engine (mapping,
        policy, per-shard fault schedule) from scratch, which is what both
        a restart after shard death and a whole-fleet recovery need.  One
        ``profiler`` is shared by every shard, so their spans roll up into
        one fleet-wide profile.
        """
        tree = CompleteBinaryTree(self.levels)

        def factory(shard: int) -> ServeEngine:
            mapping = ColorMapping.for_modules(tree, self.modules)
            pms = ParallelMemorySystem(mapping, profiler=profiler)
            if self.faults:
                schedule = fault_schedule(self.faults)
                pms.attach_faults(per_shard_schedules(schedule, self.shards)[shard])
            return ServeEngine(
                pms,
                policy=self.policy,
                queue_capacity=self.queue_capacity,
                admission=self.admission,
                max_batch_components=self.batch_components,
                retry_timeout=self.retry_timeout,
                max_retries=self.max_retries,
                repair=self.repair,
                profiler=profiler,
            )

        shards = [factory(shard) for shard in range(self.shards)]
        population = heavy_tailed_tenants(
            tree,
            self.tenants,
            self.workload,
            self.arrival_rate,
            seed=self.seed,
            alpha=self.tenant_alpha,
            quota=self.quota,
            gold_every=self.gold_every,
            gold=SLOClass("gold", deadline=self.gold_deadline, weight=self.gold_weight),
        )
        if recorder is None and self.obs:
            recorder = EventRecorder()
        coordinator = FleetCoordinator(
            shards,
            router=self.router,
            directory=population.directory,
            recorder=recorder,
            kills=self.kill_shard_at or (),
        )
        return coordinator, population, recorder, factory

    def supervise(
        self, coordinator, factory, state_dir=None, crash_at=None
    ) -> FleetSupervisor:
        """A :class:`~repro.fleet.supervisor.FleetSupervisor` over a built
        fleet, with this config's checkpoint cadence and restart policy."""
        return FleetSupervisor(
            coordinator,
            factory=factory,
            state_dir=state_dir,
            checkpoint_every=self.checkpoint_every,
            restart_after=self.restart_after,
            restart_budget=self.restart_budget,
            crash_at=crash_at,
        )
