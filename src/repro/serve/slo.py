"""Service-level tracking for serving runs.

The :class:`SLOTracker` accumulates the per-request lifecycle the engine
reports — arrivals, admissions, sheds, dispatches, completions — and the
per-batch packing outcomes, then folds them into a :class:`ServeReport`:
sojourn percentiles (p50/p95/p99 via
:func:`~repro.memory.stats.latency_summary`), goodput, shed and
deadline-miss rates, and the batching figures the paper's composite bound
speaks to (components per batch, conflicts per batch, rounds per request).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.memory.stats import latency_summary
from repro.serve.batching import Batch
from repro.serve.request import Request

__all__ = ["SLOTracker", "ServeReport", "WALL_CLOCK_FIELDS"]

#: report fields measured in real seconds, not simulated cycles — excluded
#: from determinism/equivalence comparison (two bit-identical runs still
#: take different wall time)
WALL_CLOCK_FIELDS = frozenset(
    {"wall_time_s", "requests_per_sec", "cycles_per_sec"}
)


@dataclass
class ServeReport:
    """Aggregate outcome of one serving run."""

    policy: str
    cycles: int
    arrivals: int
    admitted: int
    completed: int
    completed_items: int
    shed: int
    degraded: int
    deadline_misses: int
    num_batches: int
    #: sojourn (arrival -> completion) percentiles, ``None`` if nothing completed
    latency: dict[str, float] | None
    #: queueing wait (arrival -> dispatch) percentiles
    wait: dict[str, float] | None
    mean_batch_size: float
    mean_batch_components: float
    mean_batch_conflicts: float
    max_batch_conflicts: int
    #: total round-group cycles divided by completed requests — the
    #: batching headline (lower = more requests amortized per round)
    mean_rounds_per_request: float
    goodput: float  # completed items per cycle
    shed_rate: float
    deadline_miss_rate: float
    # -- resilience figures (all zero / idle on a fault-free run) -------------
    #: retry dispatches after a timeout
    retries: int = 0
    #: per-request timeout escalations (a request may time out repeatedly)
    timeouts: int = 0
    #: requests shed at the top of the retry ladder (retries + degradation
    #: exhausted), a subset of ``shed``
    timeout_shed: int = 0
    #: batches aborted by the timeout ladder before retiring
    aborted_batches: int = 0
    #: mean fraction of modules serviceable over the run (1.0 = no faults)
    availability: float = 1.0
    #: sojourn percentiles of requests that needed >= 1 retry (recovery
    #: latency), ``None`` when nothing retried
    recovery: dict[str, float] | None = None
    # -- wall-clock figures (see WALL_CLOCK_FIELDS) ---------------------------
    #: real seconds the run took, from the engine's attached
    #: :class:`~repro.obs.perf.PerfProfiler`; 0.0 when profiling was off
    wall_time_s: float = 0.0
    #: completed requests per wall-clock second (0.0 when unprofiled/empty)
    requests_per_sec: float = 0.0
    #: simulated cycles per wall-clock second (0.0 when unprofiled/empty)
    cycles_per_sec: float = 0.0
    #: per-tenant summary table keyed by tenant label (arrivals / completed /
    #: items / shed / sojourn percentiles); ``None`` when tenant accounting
    #: saw no traffic — reports written before the field existed load as
    #: ``None`` too
    tenants: dict | None = None

    # -- defined-value accessors -----------------------------------------------
    # A run crashed or restored after 0 cycles / 0 completions still yields a
    # well-defined report: rates are 0.0 and percentiles are None, never a
    # ZeroDivisionError or a KeyError on an empty distribution.

    def _percentile(self, which: str) -> float | None:
        return self.latency[which] if self.latency else None

    @property
    def p50(self) -> float | None:
        """Median sojourn, ``None`` when nothing completed."""
        return self._percentile("p50")

    @property
    def p95(self) -> float | None:
        return self._percentile("p95")

    @property
    def p99(self) -> float | None:
        return self._percentile("p99")

    @property
    def max_latency(self) -> float | None:
        return self._percentile("max")

    @property
    def completion_rate(self) -> float:
        """Completed / arrivals; 0.0 on an empty run."""
        return self.completed / self.arrivals if self.arrivals else 0.0

    @property
    def admit_rate(self) -> float:
        """Admitted / arrivals; 0.0 on an empty run."""
        return self.admitted / self.arrivals if self.arrivals else 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per cycle; 0.0 on a 0-cycle run."""
        return self.completed / self.cycles if self.cycles else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lat = self.latency or {}
        lines = [
            f"serve[{self.policy}]: {self.completed}/{self.arrivals} requests "
            f"completed in {self.cycles} cycles "
            f"({self.shed} shed, {self.degraded} degraded, "
            f"{self.deadline_misses} deadline misses)",
            f"  goodput {self.goodput:.3f} items/cycle, "
            f"rounds/request {self.mean_rounds_per_request:.3f}",
            f"  batches: {self.num_batches}, mean size {self.mean_batch_size:.2f} "
            f"requests / {self.mean_batch_components:.2f} components, "
            f"conflicts mean {self.mean_batch_conflicts:.2f} "
            f"max {self.max_batch_conflicts}",
            f"  resilience: retries {self.retries}, timeouts {self.timeouts}, "
            f"timeout-shed {self.timeout_shed}, aborted batches "
            f"{self.aborted_batches}, availability {self.availability:.4f}",
        ]
        if lat:
            lines.append(
                "  sojourn cycles: p50={p50:g} p95={p95:g} p99={p99:g} "
                "max={max:g}".format(**lat)
            )
        if self.recovery:
            lines.append(
                "  recovery cycles: p50={p50:g} p95={p95:g} p99={p99:g} "
                "max={max:g}".format(**self.recovery)
            )
        if self.wall_time_s > 0:
            lines.append(
                f"  wall clock: {self.wall_time_s:.3f}s, "
                f"{self.cycles_per_sec:,.0f} cycles/s, "
                f"{self.requests_per_sec:,.0f} requests/s"
            )
        return "\n".join(lines)


@dataclass
class SLOTracker:
    """Counts and distributions accumulated while the engine runs."""

    arrivals: int = 0
    admitted: int = 0
    completed: int = 0
    completed_items: int = 0
    shed: int = 0
    degraded: int = 0
    deadline_misses: int = 0
    retries: int = 0
    timeouts: int = 0
    timeout_shed: int = 0
    aborted_batches: int = 0
    failed_module_cycles: int = 0
    observed_module_cycles: int = 0
    sojourns: list = field(default_factory=list)
    waits: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)
    batch_sizes: list = field(default_factory=list)
    batch_components: list = field(default_factory=list)
    batch_conflicts: list = field(default_factory=list)
    batch_rounds: list = field(default_factory=list)
    #: per-tenant lifecycle buckets keyed by tenant label; absent from
    #: snapshots written before multi-tenancy existed (``load_state`` then
    #: falls back to the empty default)
    tenants: dict = field(default_factory=dict)

    # -- engine callbacks ------------------------------------------------------

    def _tenant(self, request: Request) -> dict:
        label = request.tenant if request.tenant is not None else str(request.client_id)
        bucket = self.tenants.get(label)
        if bucket is None:
            bucket = {
                "arrivals": 0,
                "completed": 0,
                "items": 0,
                "shed": 0,
                "sojourns": [],
            }
            self.tenants[label] = bucket
        return bucket

    def on_arrival(self, request: Request) -> None:
        self.arrivals += 1
        self._tenant(request)["arrivals"] += 1

    def on_admit(self, request: Request) -> None:
        self.admitted += 1
        if request.degraded:
            self.degraded += 1

    def on_shed(self, request: Request) -> None:
        self.shed += 1
        self._tenant(request)["shed"] += 1

    def on_dispatch(self, batch: Batch, cycle: int) -> None:
        self.batch_sizes.append(len(batch))
        self.batch_components.append(batch.num_components)
        self.batch_conflicts.append(batch.conflicts)
        for req in batch.requests:
            self.waits.append(cycle - req.arrival_cycle)

    def on_batch_retired(self, batch: Batch, rounds: int) -> None:
        self.batch_rounds.append(rounds)

    def on_batch_aborted(self, batch: Batch, rounds: int) -> None:
        """A batch hit the retry timeout: its rounds were spent anyway."""
        self.aborted_batches += 1
        self.batch_rounds.append(rounds)

    def on_timeout(self, request: Request) -> None:
        self.timeouts += 1

    def on_retry(self, request: Request) -> None:
        self.retries += 1

    def on_timeout_shed(self, request: Request) -> None:
        """Ladder exhausted: retries and degradation both failed."""
        self.timeout_shed += 1
        self.shed += 1
        self._tenant(request)["shed"] += 1

    def on_cycle(self, failed_modules: int, num_modules: int) -> None:
        """Per-cycle module availability sample from the engine loop."""
        self.failed_module_cycles += failed_modules
        self.observed_module_cycles += num_modules

    def on_complete(self, request: Request) -> None:
        self.completed += 1
        self.completed_items += request.size
        self.sojourns.append(request.sojourn)
        if request.timeouts:
            self.recoveries.append(request.sojourn)
        if request.missed_deadline:
            self.deadline_misses += 1
        bucket = self._tenant(request)
        bucket["completed"] += 1
        bucket["items"] += request.size
        bucket["sojourns"].append(request.sojourn)

    # -- checkpoint / restore --------------------------------------------------

    def state_dict(self) -> dict:
        """All counters and distributions, JSON-serializable."""
        return asdict(self)

    def load_state(self, state: dict) -> None:
        """Resume from a :meth:`state_dict` capture; a field the capture
        lacks (an older snapshot) takes its default."""
        vars(self).update(vars(type(self)(**state)))

    # -- fleet aggregation -----------------------------------------------------

    def absorb(self, other: "SLOTracker") -> None:
        """Fold another tracker's counters and distributions into this one.

        Used by the fleet coordinator to merge per-shard trackers into one
        fleet-wide view; availability folds correctly because the module-cycle
        samples are extensive (sums), not per-shard ratios.
        """
        self.arrivals += other.arrivals
        self.admitted += other.admitted
        self.completed += other.completed
        self.completed_items += other.completed_items
        self.shed += other.shed
        self.degraded += other.degraded
        self.deadline_misses += other.deadline_misses
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.timeout_shed += other.timeout_shed
        self.aborted_batches += other.aborted_batches
        self.failed_module_cycles += other.failed_module_cycles
        self.observed_module_cycles += other.observed_module_cycles
        self.sojourns.extend(other.sojourns)
        self.waits.extend(other.waits)
        self.recoveries.extend(other.recoveries)
        self.batch_sizes.extend(other.batch_sizes)
        self.batch_components.extend(other.batch_components)
        self.batch_conflicts.extend(other.batch_conflicts)
        self.batch_rounds.extend(other.batch_rounds)
        for label, bucket in other.tenants.items():
            mine = self.tenants.setdefault(
                label,
                {"arrivals": 0, "completed": 0, "items": 0, "shed": 0, "sojourns": []},
            )
            mine["arrivals"] += bucket["arrivals"]
            mine["completed"] += bucket["completed"]
            mine["items"] += bucket["items"]
            mine["shed"] += bucket["shed"]
            mine["sojourns"].extend(bucket["sojourns"])

    @classmethod
    def merged(cls, trackers) -> "SLOTracker":
        """A fresh tracker holding the union of ``trackers``."""
        total = cls()
        for tracker in trackers:
            total.absorb(tracker)
        return total

    # -- reporting -------------------------------------------------------------

    @property
    def max_batch_conflicts(self) -> int:
        return max(self.batch_conflicts, default=0)

    def report(self, policy: str, cycles: int) -> ServeReport:
        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        return ServeReport(
            policy=policy,
            cycles=cycles,
            arrivals=self.arrivals,
            admitted=self.admitted,
            completed=self.completed,
            completed_items=self.completed_items,
            shed=self.shed,
            degraded=self.degraded,
            deadline_misses=self.deadline_misses,
            num_batches=len(self.batch_sizes),
            latency=latency_summary(self.sojourns) if self.sojourns else None,
            wait=latency_summary(self.waits) if self.waits else None,
            mean_batch_size=mean(self.batch_sizes),
            mean_batch_components=mean(self.batch_components),
            mean_batch_conflicts=mean(self.batch_conflicts),
            max_batch_conflicts=self.max_batch_conflicts,
            mean_rounds_per_request=(
                sum(self.batch_rounds) / self.completed if self.completed else 0.0
            ),
            goodput=self.completed_items / cycles if cycles else 0.0,
            shed_rate=self.shed / self.arrivals if self.arrivals else 0.0,
            deadline_miss_rate=(
                self.deadline_misses / self.completed if self.completed else 0.0
            ),
            retries=self.retries,
            timeouts=self.timeouts,
            timeout_shed=self.timeout_shed,
            aborted_batches=self.aborted_batches,
            availability=(
                1.0 - self.failed_module_cycles / self.observed_module_cycles
                if self.observed_module_cycles
                else 1.0
            ),
            recovery=latency_summary(self.recoveries) if self.recoveries else None,
            tenants=self.tenant_summary(),
        )

    def tenant_summary(self) -> dict | None:
        """Per-tenant table: counts plus sojourn percentiles; ``None`` when
        no tenant traffic was observed."""
        if not self.tenants:
            return None
        out = {}
        for label in sorted(self.tenants):
            bucket = self.tenants[label]
            out[label] = {
                "arrivals": bucket["arrivals"],
                "completed": bucket["completed"],
                "items": bucket["items"],
                "shed": bucket["shed"],
                "latency": (
                    latency_summary(bucket["sojourns"])
                    if bucket["sojourns"]
                    else None
                ),
            }
        return out
