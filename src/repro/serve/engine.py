"""The cycle-driven serving engine.

:class:`ServeEngine` wraps a :class:`~repro.memory.system.ParallelMemorySystem`
and serves an *online* stream of template requests instead of replaying a
pre-built trace.  Each cycle it:

1. applies due fault-schedule edges and, when the failed-module set changed,
   swaps in a repair mapping (``repair="color"`` for the conflict-aware
   :class:`~repro.memory.faults.ColorRepairMapping`, ``"oblivious"`` for the
   round-robin :class:`~repro.memory.faults.RemappedMapping`),
2. retires completions (notifying closed-loop clients) and aborts the
   in-flight batch if it exceeded the retry timeout,
3. collects arrivals from every client and runs admission control,
4. when the array is idle, forms the next batch with the configured
   :class:`~repro.serve.batching.BatchPolicy` and dispatches it — all
   requests of a batch are enqueued together, exactly the paper's composite
   access — and
5. runs one service cycle through
   :meth:`~repro.memory.system.ParallelMemorySystem.issue`, the same
   cycle barrier and open-loop replay run.

A batch occupies the array until every one of its requests has completed
(the paper's serialized round-group: on a unit-latency crossbar a batch
with ``f`` conflicts takes ``f + 1`` rounds), so per-batch rounds divided
by requests served is directly comparable across policies.

**Retry ladder.**  With ``retry_timeout`` set, a batch still holding
unserved items after that many cycles is aborted: its unserved items are
pulled off the module queues and each affected request escalates through
*retry* (requeued head-of-line with capped exponential backoff, up to
``max_retries`` attempts), then *degrade* (the template shrinks in-family
via :func:`~repro.serve.request.degrade_instance` and the retry budget
resets), then *shed*.  The ladder guarantees the engine drains even when a
module never recovers.

Telemetry rides the system's :mod:`repro.obs` recorder: the system's
issue cycle emits the module-level ``issue`` / ``queue_depth`` / ``stall``
events (the engine adds each ``complete`` with its request id), the system
emits ``fault_inject``/``fault_recover``/``fault_drop`` as schedule edges
apply, and the engine adds ``serve_arrival`` /
``serve_shed`` / ``access`` (one per batch) / ``batch_retire`` /
``serve_complete`` / ``request_timeout`` / ``request_retry`` / ``repair``
events, so ``pmtree obs report`` works on serving artifacts unchanged.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from itertools import chain
from typing import Iterator

import numpy as np

from repro.core.mapping import TreeMapping
from repro.host.driver import Driver
from repro.memory.system import ParallelMemorySystem
from repro.obs.perf import NULL_PROFILER, NullProfiler
from repro.serve.batching import Batch, BatchPolicy, _elementary_components, make_policy
from repro.serve.clients import Client
from repro.serve.durability import SNAPSHOT_VERSION, DurabilityError, EngineSnapshot
from repro.serve.request import (
    AdmissionQueue,
    Request,
    degrade_instance,
    request_from_json,
    request_to_json,
)
from repro.serve.slo import ServeReport, SLOTracker
from repro.templates.composite import make_composite

__all__ = ["REPAIR_MODES", "ServeEngine"]

REPAIR_MODES = ("none", "oblivious", "color")


class ServeEngine:
    """Online request-serving loop over a parallel memory system.

    Parameters
    ----------
    system:
        The (mapping-bound) memory array to serve against.  Its recorder, if
        enabled, receives serving telemetry; its attached
        :class:`~repro.memory.faults.FaultSchedule`, if any, is applied as
        the serve clock advances.
    policy:
        A :class:`BatchPolicy` instance or a registry name
        (``"fifo"``, ``"greedy-pack"``, ``"load-aware"``).
    queue_capacity:
        Admission-queue bound, in items (tree nodes).
    admission:
        Backpressure policy: ``"block"``, ``"shed"`` or ``"degrade"``.
    max_batch_components:
        The paper's ``c`` — elementary components packed per batch.
    bound_k:
        Conflict budget parameter for conflict-aware packing; ``"auto"``
        reads the mapping's COLOR parameter ``k`` when present, ``None``
        disables the budget.
    deadline:
        When set, every request's deadline is ``arrival + deadline`` cycles.
    retry_timeout:
        Cycles an in-flight batch may hold the array before it is aborted
        and its unfinished requests climb the retry ladder; ``None``
        (default) disables timeouts entirely.
    max_retries:
        Plain retries per request before the ladder escalates to degrading
        the template (and, when it cannot shrink further, shedding).
    backoff_base / backoff_cap:
        Exponential backoff for retries: attempt ``n`` redispatches no
        earlier than ``min(backoff_base * 2**(n-1), backoff_cap)`` cycles
        after its timeout.
    repair:
        What to do with a dead module's nodes while it is down: ``"none"``
        (requests wait or time out), ``"oblivious"`` (round-robin remap) or
        ``"color"`` (conflict-aware recoloring).  Repair mappings are built
        lazily per failed-module set and dropped when the set recovers.
    repair_cache_cap:
        Bound on the per-failed-set repair-mapping cache (LRU eviction).
        Under churning failure sets the number of distinct sets is
        combinatorial, so a long-lived engine must not hold them all;
        evicted mappings are rebuilt deterministically on demand.
    profiler:
        A :class:`~repro.obs.perf.PerfProfiler` to receive wall-clock phase
        spans (``retire`` / ``admit`` / ``dispatch`` / ``service``) and run
        throughput counters; the default is the shared
        :data:`~repro.obs.perf.NULL_PROFILER`, whose spans are free no-ops.
        Use a fresh profiler per run — :meth:`finish` folds its wall clock
        into the report's ``wall_time_s`` / ``requests_per_sec`` /
        ``cycles_per_sec`` fields.
    """

    def __init__(
        self,
        system: ParallelMemorySystem,
        policy: BatchPolicy | str = "greedy-pack",
        *,
        queue_capacity: int = 256,
        admission: str = "block",
        max_batch_components: int = 4,
        bound_k: int | str | None = "auto",
        deadline: int | None = None,
        retry_timeout: int | None = None,
        max_retries: int = 3,
        backoff_base: int = 8,
        backoff_cap: int = 128,
        repair: str = "none",
        repair_cache_cap: int = 8,
        profiler: NullProfiler | None = None,
    ):
        self.system = system
        if bound_k == "auto":
            bound_k = getattr(system.mapping, "k", None)
        if isinstance(policy, str):
            policy = make_policy(
                policy, max_components=max_batch_components, bound_k=bound_k
            )
        self.policy = policy
        self.queue = AdmissionQueue(queue_capacity, policy=admission)
        self.deadline = deadline
        if retry_timeout is not None and retry_timeout < 1:
            raise ValueError(f"retry_timeout must be >= 1, got {retry_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base < 1 or backoff_cap < backoff_base:
            raise ValueError(
                f"need 1 <= backoff_base <= backoff_cap, got "
                f"{backoff_base}/{backoff_cap}"
            )
        if repair not in REPAIR_MODES:
            raise ValueError(f"unknown repair mode {repair!r}; pick from {REPAIR_MODES}")
        if repair_cache_cap < 1:
            raise ValueError(
                f"repair_cache_cap must be >= 1, got {repair_cache_cap}"
            )
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.repair = repair
        self.repair_cache_cap = repair_cache_cap
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        # phase spans bound once: with the null profiler these are all the
        # shared NULL_SPAN singleton, so the step loop never allocates
        self._sp_retire = self.profiler.span("retire")
        self._sp_admit = self.profiler.span("admit")
        self._sp_dispatch = self.profiler.span("dispatch")
        self._sp_service = self.profiler.span("service")
        self.tracker = SLOTracker()
        #: write-ahead journal hook (see :mod:`repro.serve.durability`);
        #: ``None`` keeps the engine journal-free
        self.journal = None
        self._next_id = 0
        self._requests: dict[int, Request] = {}  # in flight, by id
        self._inflight_items = 0  # sum of their sizes, kept as they change
        self._mapping: TreeMapping = system.mapping  # effective (repair) mapping
        self._failed_now: frozenset[int] = frozenset()
        self._repair_cache: OrderedDict[frozenset[int], TreeMapping] = OrderedDict()
        # per-run state, owned by start()/step()/finish(); state_dict() and
        # load_state() carry all of it, so a run resumes mid-flight
        self._clients: list[Client] = []
        self._clients_by_id: dict[int, Client] = {}
        self._max_cycles = 0
        self._drain = True
        self._drain_limit = 0
        self._completions: list[tuple[int, int]] = []
        self._remaining: dict[int, int] = {}
        self._current_batch: Batch | None = None
        self._batch_dispatched_at = 0
        self._access_index = -1
        self._cycle = 0
        self._active = False

    # -- fault / repair internals ----------------------------------------------

    def _journal(self, kind: str, cycle: int, **fields) -> None:
        """Append (or, during recovery, verify) one WAL record."""
        if self.journal is not None:
            self.journal.record(kind, cycle, **fields)

    def _repair_mapping(self, failed: frozenset[int]) -> TreeMapping:
        """Effective mapping for the current failed set.

        Mappings are cached per failed set with LRU eviction bounded by
        ``repair_cache_cap``; an evicted set's mapping is rebuilt
        deterministically if the set recurs, so eviction never changes
        behavior — only construction cost.
        """
        if not failed or self.repair == "none":
            return self.system.mapping
        cache = self._repair_cache
        if failed in cache:
            cache.move_to_end(failed)
            return cache[failed]
        from repro.memory.faults import ColorRepairMapping, RemappedMapping

        cls = ColorRepairMapping if self.repair == "color" else RemappedMapping
        mapping = cls(self.system.mapping, failed)
        cache[failed] = mapping
        while len(cache) > self.repair_cache_cap:
            cache.popitem(last=False)
        return mapping

    def _advance_faults(self, cycle: int) -> None:
        """Apply schedule edges; swap the dispatch mapping on membership change.

        Only an applied edge can change the failed set, so the set is
        rebuilt only on a cycle that applied one.
        """
        system = self.system
        if not system.advance_faults(cycle):
            return
        failed = system.failed_modules()
        if failed == self._failed_now:
            return
        self._failed_now = failed
        self._mapping = self._repair_mapping(failed)
        rec = system.recorder
        if rec.enabled and self.repair != "none":
            moved = 0
            if self._mapping is not system.mapping:
                moved = int(
                    (self._mapping.color_array() != system.mapping.color_array()).sum()
                )
            rec.event(
                "repair",
                cycle=cycle,
                mode=self.repair,
                modules=sorted(failed),
                moved=moved,
            )

    # -- dispatch / service internals -----------------------------------------

    def _dispatch(self, batch: Batch, cycle: int, access_index: int) -> None:
        """Enqueue a batch's nodes onto the modules and put its requests in
        flight, with their remaining-item counts."""
        system = self.system
        rec = system.recorder
        if rec.enabled:
            rec.begin_access(access_index, self.policy.name)
            system._emit_conflicts(batch.module_counts, cycle=cycle)
            rec.event(
                "access",
                cycle=cycle,
                label=f"batch:{self.policy.name}",
                size=batch.size,
                conflicts=batch.conflicts,
                requests=len(batch),
                components=batch.num_components,
            )
        self._journal(
            "dispatch",
            cycle,
            batch=access_index,
            requests=[req.request_id for req in batch.requests],
            size=batch.size,
            conflicts=batch.conflicts,
        )
        # the batch was costed under the effective mapping this cycle, so
        # its colors are the modules each request's items queue on
        colors = batch.colors
        offset = 0
        for req in batch.requests:
            req.dispatch_cycle = cycle
            req.attempts += 1
            size = req.size
            self._requests[req.request_id] = req
            self._inflight_items += size
            self._remaining[req.request_id] = size
            system.submit(
                req.nodes, key=req.request_id, colors=colors[offset : offset + size]
            )
            offset += size
        self.tracker.on_dispatch(batch, cycle)

    def _retire(self, cycle: int) -> int:
        """Complete requests whose last item finished by ``cycle``; returns
        the latest completion cycle retired (or -1)."""
        rec = self.system.recorder
        completions = self._completions
        last = -1
        while completions and completions[0][0] <= cycle:
            done_cycle, request_id = heapq.heappop(completions)
            request = self._requests.pop(request_id)
            self._inflight_items -= request.size
            request.complete_cycle = done_cycle
            last = max(last, done_cycle)
            self.tracker.on_complete(request)
            if rec.enabled:
                rec.event(
                    "serve_complete",
                    cycle=done_cycle,
                    request=request_id,
                    client=request.client_id,
                    tenant=request.tenant,
                    sojourn=request.sojourn,
                    missed=request.missed_deadline,
                )
            self._journal(
                "retire",
                cycle,
                request=request_id,
                client=request.client_id,
                completed=done_cycle,
                sojourn=request.sojourn,
            )
            client = self._clients_by_id.get(request.client_id)
            if client is not None:
                client.notify(request, done_cycle)
        return last

    # -- retry ladder ----------------------------------------------------------

    def _escalate(self, request: Request, cycle: int) -> None:
        """One rung up the ladder for a timed-out request that has left the
        in-flight table: retry -> degrade -> shed."""
        tracker = self.tracker
        rec = self.system.recorder
        request.timeouts += 1
        tracker.on_timeout(request)
        if rec.enabled:
            rec.event(
                "request_timeout",
                cycle=cycle,
                request=request.request_id,
                client=request.client_id,
                attempt=request.attempts,
            )
        degraded_now = False
        if request.attempts > self.max_retries:
            smaller = degrade_instance(request.instance)
            if smaller is None:
                # ladder exhausted: shed
                tracker.on_timeout_shed(request)
                if rec.enabled:
                    rec.event(
                        "serve_shed",
                        cycle=cycle,
                        request=request.request_id,
                        client=request.client_id,
                        size=request.size,
                        reason="timeout",
                    )
                self._journal(
                    "shed",
                    cycle,
                    request=request.request_id,
                    client=request.client_id,
                    reason="timeout",
                )
                client = self._clients_by_id.get(request.client_id)
                if client is not None:
                    client.notify_shed(request, cycle)
                return
            if request.degraded == 0:
                tracker.degraded += 1
            request.instance = smaller
            request.degraded += 1
            request.attempts = 0  # a smaller template earns a fresh budget
            degraded_now = True
        backoff = min(
            self.backoff_base * (1 << max(request.attempts - 1, 0)),
            self.backoff_cap,
        )
        request.retry_at = cycle + backoff
        tracker.on_retry(request)
        if rec.enabled:
            rec.event(
                "request_retry",
                cycle=cycle,
                request=request.request_id,
                client=request.client_id,
                retry_at=request.retry_at,
                attempt=request.attempts,
                degraded=degraded_now,
            )
        self._journal(
            "retry",
            cycle,
            request=request.request_id,
            retry_at=request.retry_at,
            attempt=request.attempts,
            degraded=degraded_now,
        )
        self.queue.requeue(request)

    def _abort_batch(self, batch: Batch, cycle: int) -> None:
        """Pull a timed-out batch's unserved items off the array and send
        every still-incomplete request up the retry ladder.  Requests whose
        items all issued already retire normally through the completions
        heap — aborting them would discard finished work."""
        remaining = self._remaining
        live = [req for req in batch.requests if req.request_id in remaining]
        self.system.withdraw({req.request_id for req in live})
        for req in live:
            del remaining[req.request_id]
            if self._requests.pop(req.request_id, None) is not None:
                self._inflight_items -= req.size
            self._escalate(req, cycle)

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
        """Arm a fresh run: reset the system, install clients, zero the clock.

        ``run`` is ``start`` + ``step`` until exhausted + ``finish``; the
        split exists so a supervisor (:mod:`repro.serve.durability`) can
        interleave checkpoints — and simulated crashes — between cycles.
        """
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        system = self.system
        system.reset()
        self._mapping = system.mapping
        self._failed_now = frozenset()
        rec = system.recorder
        if rec.enabled:
            rec.set_meta(
                serve_policy=self.policy.name,
                admission=self.queue.policy,
                queue_capacity=self.queue.capacity,
                max_batch_components=self.policy.max_components,
                num_clients=len(clients),
                retry_timeout=self.retry_timeout,
                repair=self.repair,
            )
        clients_by_id = {client.client_id: client for client in clients}
        if len(clients_by_id) != len(clients):
            raise ValueError("client ids must be unique")
        self._clients = list(clients)
        self._clients_by_id = clients_by_id
        self._max_cycles = max_cycles
        self._drain = drain
        self._drain_limit = drain_limit
        # each run reports itself (requests still queued from a previous
        # non-drained run are served, but counted there)
        self.tracker = SLOTracker()
        self._completions = []
        self._remaining = {}
        self._current_batch = None
        self._batch_dispatched_at = 0
        self._access_index = -1
        self._cycle = 0
        self._active = True
        self.profiler.start()

    def step(self) -> bool:
        """Advance the run by one cycle; ``False`` once the run is over.

        A ``False`` return leaves all state untouched (the exit checks run
        before any work), so callers may checkpoint right up to the end.
        """
        if not self._active:
            return False
        system = self.system
        rec = system.recorder
        tracker = self.tracker
        cycle = self._cycle
        arriving = cycle < self._max_cycles
        if not arriving and not self._drain:
            self._active = False
            return False
        if not arriving and (
            self._current_batch is None
            and self.queue.drained
            and not self._completions
            and not self._remaining
        ):
            self._active = False
            return False
        if cycle > self._max_cycles + self._drain_limit:
            raise RuntimeError(
                f"serving did not drain within {self._drain_limit} cycles after "
                f"arrivals stopped (queue={self.queue!r})"
            )
        # 0. fault-schedule edges + repair remapping + availability sample
        self._advance_faults(cycle)
        tracker.on_cycle(len(self._failed_now), system.num_modules)
        # 1. retire completions due now; free the array when its batch ends
        # (only a retirement can complete the batch's last request)
        with self._sp_retire:
            completions = self._completions
            if completions and completions[0][0] <= cycle:
                last_done = self._retire(cycle)
                batch = self._current_batch
                if batch is not None and not any(
                    not req.completed for req in batch.requests
                ):
                    rounds = (
                        max(last_done, self._batch_dispatched_at)
                        - self._batch_dispatched_at
                    )
                    tracker.on_batch_retired(batch, rounds)
                    if rec.enabled:
                        rec.event(
                            "batch_retire",
                            cycle=cycle,
                            rounds=rounds,
                            requests=len(batch),
                            components=batch.num_components,
                            conflicts=batch.conflicts,
                        )
                    self._current_batch = None
            # 1b. retry-timeout abort: the batch has held the array too long
            if (
                self._current_batch is not None
                and self.retry_timeout is not None
                and cycle - self._batch_dispatched_at >= self.retry_timeout
                and any(
                    req.request_id in self._remaining
                    for req in self._current_batch.requests
                )
            ):
                batch = self._current_batch
                rounds = cycle - self._batch_dispatched_at
                tracker.on_batch_aborted(batch, rounds)
                if rec.enabled:
                    rec.event(
                        "batch_retire",
                        cycle=cycle,
                        rounds=rounds,
                        requests=len(batch),
                        components=batch.num_components,
                        conflicts=batch.conflicts,
                        aborted=True,
                    )
                self._abort_batch(batch, cycle)
                self._current_batch = None
        # 2. arrivals + admission
        with self._sp_admit:
            if arriving:
                for client in self._clients:
                    for instance, tenant in client.poll_tenants(cycle):
                        request = Request(
                            request_id=self._next_id,
                            client_id=client.client_id,
                            instance=instance,
                            arrival_cycle=cycle,
                            deadline=(
                                cycle + self.deadline
                                if self.deadline is not None
                                else None
                            ),
                            tenant=tenant,
                        )
                        self._next_id += 1
                        tracker.on_arrival(request)
                        if rec.enabled:
                            rec.event(
                                "serve_arrival",
                                cycle=cycle,
                                request=request.request_id,
                                client=client.client_id,
                                tenant=request.tenant,
                                size=request.size,
                                kind=instance.kind,
                            )
                        outcome = self.queue.offer(request, cycle)
                        if outcome == "admitted":
                            tracker.on_admit(request)
                            self._journal(
                                "admit",
                                cycle,
                                request=request.request_id,
                                client=client.client_id,
                                tenant=request.tenant,
                                size=request.size,
                            )
                        elif outcome == "shed":
                            tracker.on_shed(request)
                            if rec.enabled:
                                rec.event(
                                    "serve_shed",
                                    cycle=cycle,
                                    request=request.request_id,
                                    client=client.client_id,
                                    size=request.size,
                                )
                            self._journal(
                                "shed",
                                cycle,
                                request=request.request_id,
                                client=client.client_id,
                                reason="admission",
                            )
                            client.notify_shed(request, cycle)
            if self.queue.waiting:
                for request in self.queue.admit_waiting(cycle):
                    tracker.on_admit(request)
                    self._journal(
                        "admit",
                        cycle,
                        request=request.request_id,
                        client=request.client_id,
                        tenant=request.tenant,
                        size=request.size,
                    )
        # 3. dispatch the next batch once the array is idle; requests in
        # a backoff window are not yet eligible
        with self._sp_dispatch:
            if self._current_batch is None and self.queue.pending:
                eligible = [
                    req for req in self.queue.pending if req.retry_at <= cycle
                ]
                if eligible:
                    avoid = (
                        self._failed_now if self.repair == "none" else frozenset()
                    )
                    batch = self.policy.form(eligible, self._mapping, avoid=avoid)
                    self.queue.remove(batch.requests)
                    self._access_index += 1
                    self._dispatch(batch, cycle, self._access_index)
                    self._current_batch = batch
                    self._batch_dispatched_at = cycle
        # 4. service: a request whose last item issues completes ``latency``
        # cycles later (every queued item belongs to a request in _remaining)
        with self._sp_service:
            remaining = self._remaining
            if remaining:
                for mod, ((request_id, _), _), completion in system.issue(
                    cycle, cycle
                ):
                    if rec.enabled:
                        rec.event(
                            "complete",
                            cycle=completion,
                            module=mod.module_id,
                            request=request_id,
                        )
                    remaining[request_id] -= 1
                    if remaining[request_id] == 0:
                        del remaining[request_id]
                        heapq.heappush(self._completions, (completion, request_id))
        self._cycle = cycle + 1
        return True

    def finish(self) -> ServeReport:
        """Close the run out and fold the tracker into a :class:`ServeReport`.

        With an enabled profiler the report's wall-clock fields are
        populated from it: ``wall_time_s`` is the profiler's accumulated
        run clock, ``requests_per_sec`` / ``cycles_per_sec`` divide the
        run's completions / cycles by it (0.0 on an empty or unclocked
        run — the fields are always defined).
        """
        self._active = False
        report = self.tracker.report(self.policy.name, cycles=self._cycle)
        rec = self.system.recorder
        if rec.enabled:
            rec.set_meta(
                serve_cycles=self._cycle, serve_arrivals=self.tracker.arrivals
            )
        prof = self.profiler
        if prof.enabled:
            prof.stop()
            prof.count("cycles", self._cycle)
            prof.count("requests", self.tracker.completed)
            if rec.enabled:
                prof.count("events", len(rec.events))
            wall = prof.wall_time_s
            report.wall_time_s = wall
            if wall > 0:
                report.cycles_per_sec = self._cycle / wall
                report.requests_per_sec = self.tracker.completed / wall
        return report

    def run(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> ServeReport:
        """Serve ``clients`` for ``max_cycles`` cycles of arrivals.

        With ``drain`` (default) the loop keeps cycling after arrivals stop
        until every admitted request has completed, so the report covers the
        full offered load; ``drain_limit`` bounds the post-arrival cycles as
        a runaway guard.
        """
        return Driver(self).run(
            clients, max_cycles, drain=drain, drain_limit=drain_limit
        )

    # -- held work and the run window (fleet failover and rejoin) ---------------

    def held_requests(self) -> Iterator[Request]:
        """Every *unsettled* request the engine holds, deduped: admitted,
        blocked and in flight.

        The in-flight table covers the current batch's still-running
        members; the batch object itself is deliberately not scanned — it
        keeps listing requests that already retired mid-batch, and handing
        those out again (a fleet re-routing them) would double-execute them.
        """
        seen: set[int] = set()
        held = [*self.queue.pending, *self.queue.waiting, *self._requests.values()]
        for req in held:
            if req.request_id not in seen:
                seen.add(req.request_id)
                yield req

    @property
    def held_items(self) -> int:
        """Items (tree nodes) the engine holds: admitted and blocked queue
        entries plus the requests in flight."""
        queue = self.queue
        return queue.pending_items + queue.waiting_items + self._inflight_items

    def purge(self) -> int:
        """Strip every held request — queue, blocked arrivals, in-flight
        table, current batch, pending completions and module queues;
        returns how many requests :meth:`held_requests` listed."""
        purged = sum(1 for _ in self.held_requests())
        self.queue.reset()
        self._requests = {}
        self._inflight_items = 0
        self._current_batch = None
        self._batch_dispatched_at = 0
        self._completions = []
        self._remaining = {}
        self.system.clear_queues()
        return purged

    def align_run(
        self, cycle: int, max_cycles: int, drain: bool, drain_limit: int
    ) -> None:
        """Re-arm the run window at ``cycle`` and mark the run active.

        A fleet rejoin moves a restored engine onto the fleet clock this
        way; module clocks and fault cursors catch up on the next step.
        """
        self._cycle = cycle
        self._max_cycles = max_cycles
        self._drain = drain
        self._drain_limit = drain_limit
        self._active = True

    def deactivate(self) -> None:
        """End the run without a report: :meth:`step` returns ``False``."""
        self._active = False

    def reserve_ids(self, upto: int) -> None:
        """Never hand out a request id below ``upto`` (ids a journal already
        recorded stay unique when a fresh engine carries it forward)."""
        self._next_id = max(self._next_id, upto)

    # -- state protocol ----------------------------------------------------------

    def _config_key(self) -> dict:
        """The configuration a snapshot must be restored into."""
        return {
            "policy": self.policy.name,
            "admission": self.queue.policy,
            "queue_capacity": self.queue.capacity,
            "repair": self.repair,
            "num_modules": self.system.num_modules,
        }

    def state_dict(self) -> dict:
        """The full serving state, JSON-serializable, between :meth:`step`
        calls: the request table and id counter, admission queue, in-flight
        batch with its pinned costing, run window, SLO tracker, memory
        system, clients, repair-cache keys and recorder buffer."""
        batch = self._current_batch
        # one shared registry: the same Request object may sit in the
        # in-flight table, the queue, and the current batch at once
        requests: dict[int, Request] = {}
        for req in chain(
            self._requests.values(),
            self.queue.pending,
            self.queue.waiting,
            batch.requests if batch is not None else (),
        ):
            requests.setdefault(req.request_id, req)
        batch_state = None
        if batch is not None:
            # the batch's costing is pinned at dispatch time (the effective
            # mapping may have changed since), so store it rather than
            # recomputing against the restore-time mapping
            batch_state = {
                "ids": [req.request_id for req in batch.requests],
                "dispatched_at": self._batch_dispatched_at,
                "module_counts": [int(c) for c in batch.module_counts],
                "conflicts": batch.conflicts,
                "num_components": batch.num_components,
            }
        recorder = self.system.recorder
        return {
            "config": self._config_key(),
            "next_id": self._next_id,
            "failed_now": sorted(self._failed_now),
            "repair_keys": [sorted(key) for key in self._repair_cache],
            "requests": {
                str(rid): request_to_json(req) for rid, req in requests.items()
            },
            "inflight": sorted(self._requests),
            "queue": {
                "pending": [req.request_id for req in self.queue.pending],
                "waiting": [req.request_id for req in self.queue.waiting],
            },
            "batch": batch_state,
            "run": {
                "max_cycles": self._max_cycles,
                "drain": self._drain,
                "drain_limit": self._drain_limit,
                "cycle": self._cycle,
                "access_index": self._access_index,
                "active": self._active,
                "completions": [list(entry) for entry in self._completions],
                "remaining": {str(rid): n for rid, n in self._remaining.items()},
            },
            "tracker": self.tracker.state_dict(),
            "system": self.system.state_dict(),
            "clients": {
                str(client.client_id): client.state_dict()
                for client in self._clients
            },
            "recorder": recorder.state_dict() if recorder.enabled else None,
        }

    def load_state(self, state: dict, clients: list[Client]) -> None:
        """Resume from a :meth:`state_dict` capture.

        Call on a freshly configured engine; ``clients`` must be freshly
        built with the captured run's configuration — their RNG and pacing
        state is overwritten from ``state``.  After this, :meth:`step`
        continues the run bit-exactly, fault windows and the drop lottery
        included.  Raises :class:`~repro.serve.durability.DurabilityError`
        when the engine configuration or the client ids differ from the
        capture's, or when a field is missing or ill-typed.
        """
        try:
            self._load_state(state, clients)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DurabilityError(
                f"snapshot state is missing or has an ill-typed field: {exc!r}"
            ) from exc

    def _load_state(self, state: dict, clients: list[Client]) -> None:
        config = state["config"]
        live = self._config_key()
        mismatched = {
            key: (config.get(key), live[key])
            for key in live
            if config.get(key) != live[key]
        }
        if mismatched:
            raise DurabilityError(
                f"engine configuration does not match the snapshot: {mismatched}"
            )
        clients_by_id = {client.client_id: client for client in clients}
        snap_clients = state["clients"]
        if set(snap_clients) != {str(cid) for cid in clients_by_id}:
            raise DurabilityError(
                f"client ids {sorted(clients_by_id)} do not match the "
                f"snapshot's {sorted(snap_clients)}"
            )
        registry = {
            int(rid): request_from_json(payload)
            for rid, payload in state["requests"].items()
        }
        self._next_id = int(state["next_id"])
        self._requests = {rid: registry[rid] for rid in state["inflight"]}
        self._inflight_items = sum(req.size for req in self._requests.values())
        self.queue.reset(
            pending=[registry[rid] for rid in state["queue"]["pending"]],
            waiting=[registry[rid] for rid in state["queue"]["waiting"]],
        )
        batch_state = state["batch"]
        if batch_state is None:
            self._current_batch = None
            self._batch_dispatched_at = 0
        else:
            self._current_batch = _rebuild_batch(batch_state, registry)
            self._batch_dispatched_at = int(batch_state["dispatched_at"])
        run = state["run"]
        self._max_cycles = int(run["max_cycles"])
        self._drain = bool(run["drain"])
        self._drain_limit = int(run["drain_limit"])
        self._cycle = int(run["cycle"])
        self._access_index = int(run["access_index"])
        self._active = bool(run["active"])
        completions = [tuple(entry) for entry in run["completions"]]
        heapq.heapify(completions)
        self._completions = completions
        self._remaining = {int(rid): int(n) for rid, n in run["remaining"].items()}
        self.tracker.load_state(state["tracker"])
        self.system.load_state(state["system"])
        # rebuild the repair cache (deterministic per failed set) in its
        # snapshotted LRU order, then bind the effective dispatch mapping
        self._repair_cache.clear()
        for key in state["repair_keys"]:
            self._repair_mapping(frozenset(int(m) for m in key))
        self._failed_now = frozenset(int(m) for m in state["failed_now"])
        self._mapping = self._repair_mapping(self._failed_now)
        for client in clients:
            client.load_state(snap_clients[str(client.client_id)])
        self._clients = list(clients)
        self._clients_by_id = clients_by_id
        recorder_state = state["recorder"]
        if recorder_state is not None and self.system.recorder.enabled:
            self.system.recorder.load_state(recorder_state)

    def checkpoint(self) -> EngineSnapshot:
        """:meth:`state_dict` in its versioned envelope, stamped with the
        cycle and the journal position it covers."""
        return EngineSnapshot(
            version=SNAPSHOT_VERSION,
            cycle=self._cycle,
            seqno=self.journal.position if self.journal is not None else 0,
            state=self.state_dict(),
        )

    def restore(self, snapshot: EngineSnapshot, clients: list[Client]) -> None:
        """Resume a run from a snapshot taken by :meth:`checkpoint` (see
        :meth:`load_state` for what ``clients`` must be)."""
        if not isinstance(snapshot, EngineSnapshot):
            raise TypeError(f"expected an EngineSnapshot, got {type(snapshot)!r}")
        if snapshot.version != SNAPSHOT_VERSION:
            raise DurabilityError(
                f"snapshot version {snapshot.version} unsupported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        self.load_state(snapshot.state, clients)


def _rebuild_batch(batch_state: dict, registry: dict[int, Request]) -> Batch:
    """The in-flight batch of a capture, with its dispatch-time costing."""
    reqs = tuple(registry[int(rid)] for rid in batch_state["ids"])
    parts = _elementary_components(reqs)
    return Batch(
        requests=reqs,
        nodes=np.concatenate([req.nodes for req in reqs]),
        module_counts=np.array(batch_state["module_counts"], dtype=np.int64),
        conflicts=int(batch_state["conflicts"]),
        num_components=int(batch_state["num_components"]),
        composite=make_composite(parts) if parts is not None and len(parts) > 1 else None,
    )
