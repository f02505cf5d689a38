"""The parallel memory system simulator.

The paper's abstract machine: ``M`` memory modules that can each serve one
request per cycle, fed through an interconnect; simultaneous requests to one
module queue up (a *memory conflict*).  Binding a
:class:`~repro.core.mapping.TreeMapping` to the system turns tree-node
accesses into module requests.

Two replay modes:

* **barrier** (default) — each template access completes before the next
  starts; per-access cycles = serialized rounds (on a crossbar with unit
  latency: ``conflicts + 1``, exactly the paper's cost model);
* **pipelined** — all accesses are enqueued up front and the array drains;
  measures throughput, where load balance (Theorem 7) matters more than
  per-access conflicts.

Every mode — and open-loop replay and the serving engine — queues work
through :meth:`ParallelMemorySystem.submit` and serves it one cycle at a
time through :meth:`ParallelMemorySystem.issue`, the single statement of
the cost model's service rule.  The one exception is a barrier access on a
unit-port crossbar with telemetry off, no faults pending and nothing queued:
there no module ever waits on another, so :meth:`ParallelMemorySystem.access`
takes the closed form (a module holding ``c`` items is busy ``c * latency``
cycles) and updates exactly the state the ``issue`` loop, its reference,
would.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.core.mapping import TreeMapping
from repro.memory.interconnect import Crossbar, Interconnect
from repro.memory.module import MemoryModule
from repro.memory.stats import AccessResult, TraceStats
from repro.memory.trace import AccessTrace
from repro.obs.events import NullRecorder, default_recorder
from repro.obs.perf import NULL_PROFILER, NullProfiler

__all__ = ["ParallelMemorySystem"]


class ParallelMemorySystem:
    """``M`` queued memory modules behind an interconnect, bound to a mapping.

    Pass ``recorder=EventRecorder()`` (see :mod:`repro.obs`) to capture
    cycle-level telemetry; the default is the shared null recorder (or
    whatever :func:`repro.obs.install` made the process default), which
    keeps the simulation loop free of event construction.
    """

    def __init__(
        self,
        mapping: TreeMapping,
        interconnect: Interconnect | None = None,
        module_latency: int = 1,
        module_ports: int = 1,
        record_latencies: bool = False,
        recorder: NullRecorder | None = None,
        profiler: NullProfiler | None = None,
    ):
        self.mapping = mapping
        self.interconnect = interconnect or Crossbar()
        self.num_modules = mapping.num_modules
        self.recorder = recorder if recorder is not None else default_recorder()
        self.modules = [
            MemoryModule(
                module_id=i,
                latency=module_latency,
                ports=module_ports,
                recorder=self.recorder,
            )
            for i in range(self.num_modules)
        ]
        self.record_latencies = record_latencies
        # with one port per module a crossbar's issue limit of M never binds,
        # so a barrier access can take the closed form (see ``access``)
        self._unit_port_crossbar = (
            type(self.interconnect) is Crossbar and module_ports == 1
        )
        #: wall-clock span profiler (see :mod:`repro.obs.perf`): the drain
        #: loops run under a ``drain`` / ``open_loop`` span and count
        #: simulated cycles; the default null profiler is a free no-op
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: per-request completion cycles of the most recent drain (1-based),
        #: populated only when ``record_latencies`` is set
        self.last_latencies: np.ndarray | None = None
        self._rr_start = 0  # round-robin pointer for issue-limited interconnects
        self._access_index = -1  # running access number for telemetry
        #: lifetime cycle counter (drives an attached fault schedule)
        self.clock = 0
        self._fault_schedule = None
        self._fault_transitions: list = []
        self._fault_idx = 0
        self._drop_prob = 0.0
        self._drop_rng: np.random.Generator | None = None
        self.dropped = 0  # requests lost to transient drop windows
        if self.recorder.enabled:
            self.recorder.set_meta(
                num_modules=self.num_modules,
                interconnect=self.interconnect.name,
                module_latency=module_latency,
                module_ports=module_ports,
                mapping=type(mapping).__name__,
            )

    # -- dynamic faults --------------------------------------------------------

    def attach_faults(self, schedule) -> None:
        """Attach a :class:`~repro.memory.faults.FaultSchedule`.

        Windows are applied as the system's lifetime ``clock`` (barrier
        replay) or the run's own cycle counter (pipelined / open-loop /
        serving) passes their edges; :meth:`reset` re-arms the schedule
        from cycle 0.  Each applied edge emits a ``fault_inject`` /
        ``fault_recover`` event when a recorder is enabled.

        A schedule whose :attr:`~repro.memory.faults.FaultSchedule.cursor`
        has already advanced (restored via :func:`repro.io.load_faults` or
        :meth:`~repro.memory.faults.FaultSchedule.load_state`) resumes
        mid-window: the effects of the already-applied transitions are
        installed silently (no telemetry — those events were emitted by the
        original run) and stepping continues from the cursor.
        """
        schedule.validate_against(self.num_modules)
        self._fault_schedule = schedule
        self._fault_transitions = schedule.transitions()
        self._drop_prob = 0.0
        # the schedule owns the drop lottery so its position survives
        # save/restore round-trips; the system just draws from it
        self._drop_rng = schedule.rng
        self._fault_idx = schedule.cursor
        for _, edge, window in self._fault_transitions[: self._fault_idx]:
            self._apply_transition_effect(window, edge == "start")
        if self.recorder.enabled:
            self.recorder.set_meta(
                fault_windows=len(schedule.windows), fault_seed=schedule.seed
            )

    @property
    def fault_schedule(self):
        return self._fault_schedule

    def failed_modules(self) -> frozenset[int]:
        """Modules currently failed (empty when no faults are active)."""
        return frozenset(
            mod.module_id for mod in self.modules if mod.failed
        )

    def _apply_transition_effect(self, window, starting: bool) -> None:
        """Install one fault edge's effect on the array (no telemetry)."""
        if window.kind == "fail":
            self.modules[window.module].failed = starting
        elif window.kind == "slow":
            mod = self.modules[window.module]
            if starting:
                mod.latency = window.latency
            else:
                mod.restore_latency()
        else:  # drop
            self._drop_prob = window.drop_prob if starting else 0.0

    def advance_faults(self, now: int, emit_cycle: int | None = None) -> bool:
        """Apply every scheduled fault edge with ``cycle <= now``; ``True``
        when at least one edge applied (so the failed set may have changed).

        ``emit_cycle`` overrides the cycle stamped on telemetry events (the
        barrier drain counts locally while the schedule runs on the
        lifetime clock; everywhere else the two coincide).
        """
        if self._fault_schedule is None:
            return False
        start = self._fault_idx
        transitions = self._fault_transitions
        rec = self.recorder
        stamp = now if emit_cycle is None else emit_cycle
        while self._fault_idx < len(transitions):
            cycle, edge, window = transitions[self._fault_idx]
            if cycle > now:
                break
            self._fault_idx += 1
            starting = edge == "start"
            self._apply_transition_effect(window, starting)
            if rec.enabled:
                fields = {"cycle": stamp, "kind": window.kind}
                if window.kind == "drop":
                    fields["drop_prob"] = window.drop_prob
                else:
                    fields["module"] = window.module
                if window.kind == "slow":
                    fields["latency"] = window.latency
                rec.event("fault_inject" if starting else "fault_recover", **fields)
        self._fault_schedule.cursor = self._fault_idx
        return self._fault_idx != start

    def _faults_pending_after(self, now: int) -> bool:
        """Whether the schedule still holds edges strictly after ``now``."""
        transitions = self._fault_transitions
        return self._fault_idx < len(transitions) and any(
            cycle > now for cycle, _, _ in transitions[self._fault_idx :]
        )

    def maybe_drop(self, mod, served, cycle: int) -> bool:
        """Transient-drop lottery for a just-served request.

        Inside a ``drop`` window each service loses its result with the
        window's probability: the request re-queues at the tail of the same
        module (the port time it consumed is genuinely wasted) and a
        ``fault_drop`` event is emitted.  Returns ``True`` when dropped.
        """
        if self._drop_prob <= 0.0 or self._drop_rng is None:
            return False
        if self._drop_rng.random() >= self._drop_prob:
            return False
        mod.queue.append(served)
        self.dropped += 1
        if self.recorder.enabled:
            self.recorder.event(
                "fault_drop", cycle=cycle, module=mod.module_id, tag=served[0]
            )
        return True

    def _check_fault_deadlock(self, now: int) -> None:
        """Raise when pending work can never be served.

        All queue-holding modules are failed and the schedule has no future
        edges, so no recovery (and no upstream retry — this is the raw
        replay path) can ever drain the queues.
        """
        blocked = [mod for mod in self.modules if mod.queue]
        if (
            blocked
            and all(mod.failed for mod in blocked)
            and not self._faults_pending_after(now)
        ):
            dead = sorted(mod.module_id for mod in blocked)
            raise RuntimeError(
                f"drain stuck at cycle {now}: modules {dead} hold pending "
                f"requests but are failed with no scheduled recovery"
            )

    # -- the one enqueue and the one service cycle ------------------------------

    def submit(
        self, nodes: np.ndarray, key=None, colors: np.ndarray | None = None
    ) -> np.ndarray:
        """Queue each node of one access on its module; returns the colors.

        Item ``i`` is tagged ``i``, or ``(key, i)`` when ``key`` is given
        (open-loop replay keys by access, serving by request).  ``colors``
        stands in for the bound mapping's colors of ``nodes`` (the serving
        engine passes the ones it costed its batch with, under its repair
        mapping while modules are down).  Each append is
        :meth:`~repro.memory.module.MemoryModule.enqueue`, inlined.
        """
        if colors is None:
            colors = self.mapping.colors_of(nodes)
        modules = self.modules
        for i, (node, color) in enumerate(
            zip(np.asarray(nodes).tolist(), colors.tolist())
        ):
            mod = modules[color]
            queue = mod.queue
            queue.append((i if key is None else (key, i), node))
            if len(queue) > mod.max_queue_depth:
                mod.max_queue_depth = len(queue)
        return colors

    def issue(self, cycle: int, start: int) -> Iterator[tuple[MemoryModule, tuple, int]]:
        """Run one service cycle; yields ``(module, request, completion)``.

        Emits ``queue_depth`` per module holding work, then steps modules
        round-robin from ``start % M`` under the interconnect's issue limit
        (an interconnect ``stall`` when the limit cuts the scan short with
        work queued).  Requests the drop lottery loses are re-queued, not
        yielded; the rest are yielded as served, completing at
        ``cycle + latency``, so a caller's ``complete`` follows the ``issue``.
        """
        modules = self.modules
        limit = self.interconnect.issue_limit(self.num_modules)
        rec = self.recorder
        recording = rec.enabled
        if recording:
            for mod in modules:
                if mod.queue:
                    rec.event(
                        "queue_depth",
                        cycle=cycle,
                        module=mod.module_id,
                        depth=len(mod.queue),
                    )
        first = start % self.num_modules
        issued = 0
        # fair round-robin over modules so a narrow interconnect does not
        # starve high-numbered banks
        for mod in modules[first:] + modules[:first]:
            if issued >= limit:
                if recording:
                    pending = sum(len(m.queue) for m in modules)
                    if pending:
                        rec.event(
                            "stall", cycle=cycle, where="interconnect", pending=pending
                        )
                break
            while issued < limit:
                served = mod.step(cycle)
                if served is None:
                    break
                issued += 1
                if self.maybe_drop(mod, served, cycle):
                    continue  # lost in flight; re-queued for another go
                yield mod, served, cycle + mod.latency

    def withdraw(self, keys) -> None:
        """Drop every queued item tagged ``(key, i)`` with ``key`` in ``keys``."""
        for mod in self.modules:
            if mod.queue:
                mod.queue = deque(entry for entry in mod.queue if entry[0][0] not in keys)

    def clear_queues(self) -> None:
        """Drop every queued item and forget the port clocks."""
        for mod in self.modules:
            mod.reset_queue()

    def _drain(self) -> int:
        """Run cycles until every request *completes*; returns cycles elapsed.

        A request issued to a module at cycle ``t`` completes at
        ``t + latency`` (the module accepts its next request then), so the
        drain time is the latest completion across the array.

        The round-robin scan starts at ``_rr_start + cycle`` within a drain
        and the base pointer advances by one *per drain*, so consecutive
        accesses on an issue-limited interconnect rotate which module is
        served first (a fixed-length drain used to wrap the pointer back to
        where it started, pinning module 0 at the head of every access).
        The drain counts cycles from 0, so it first clears the port clocks
        an earlier drain left behind.
        """
        for mod in self.modules:
            mod.reset_clock()
        cycles = 0
        pending = sum(len(mod.queue) for mod in self.modules)
        latencies: list[int] | None = [] if self.record_latencies else None
        last_completion = 0
        start = self._rr_start
        rec = self.recorder
        recording = rec.enabled
        prof = self.profiler
        with prof.span("drain"):
            while pending:
                self.advance_faults(self.clock, emit_cycle=cycles)
                waiting = pending
                for mod, _, completion in self.issue(cycles, start + cycles):
                    pending -= 1
                    last_completion = max(last_completion, completion)
                    if recording:
                        rec.event("complete", cycle=completion, module=mod.module_id)
                    if latencies is not None:
                        latencies.append(completion)
                if pending == waiting:
                    self._check_fault_deadlock(self.clock)
                cycles += 1
                self.clock += 1
        if prof.enabled:
            prof.count("cycles", cycles)
        self._rr_start = (start + 1) % self.num_modules
        if latencies is not None:
            self.last_latencies = np.array(latencies, dtype=np.int64)
        return last_completion

    def _emit_conflicts(self, counts: np.ndarray, cycle: int = 0) -> None:
        """Emit one ``conflict`` event per module an access overloads."""
        for module in np.nonzero(counts > 1)[0]:
            self.recorder.event(
                "conflict",
                cycle=cycle,
                module=int(module),
                extra=int(counts[module]) - 1,
            )

    def _arrive(self, nodes, label: str, key=None, cycle: int = 0) -> AccessResult:
        """Queue one access and open its telemetry; the result's cycles are 0."""
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = np.bincount(self.submit(nodes, key=key), minlength=self.num_modules)
        if self.recorder.enabled:
            self._access_index += 1
            self.recorder.begin_access(self._access_index, label)
            self._emit_conflicts(counts, cycle=cycle)
        return AccessResult(
            cycles=0,
            conflicts=int(counts.max() - 1),
            module_counts=counts,
            size=int(nodes.size),
            label=label,
        )

    # -- public API ------------------------------------------------------------

    def access(self, nodes: np.ndarray, label: str = "") -> AccessResult:
        """Simulate one parallel access to a set of tree nodes.

        On a unit-port crossbar with nothing queued, no module failed, no
        fault schedule, the recorder off and ``record_latencies`` off, each
        module serves its ``c`` items back to back from cycle 0, so the
        access costs ``max(c * latency)`` cycles and the loop would run
        ``max((c - 1) * latency + 1)`` of them.  That closed form applies
        exactly what :meth:`_arrive` + :meth:`_drain` would; everywhere else
        the cycle loop runs.
        """
        if np.size(nodes) == 0:
            raise ValueError("an access needs at least one node")
        modules = self.modules
        if (
            self._unit_port_crossbar
            and self._fault_schedule is None
            and not self.record_latencies
            and not self.recorder.enabled
            and not any(mod.queue or mod.failed for mod in modules)
        ):
            nodes = np.asarray(nodes, dtype=np.int64)
            counts = np.bincount(
                self.mapping.colors_of(nodes), minlength=self.num_modules
            )
            cycles = rounds = 0
            prof = self.profiler
            with prof.span("drain"):
                # plain comparisons, not max(): this loop is the access's cost
                for mod, c in zip(modules, counts.tolist()):
                    if c:
                        busy = c * mod.latency
                        mod.served += c
                        mod.busy_cycles += busy
                        if c > mod.max_queue_depth:
                            mod.max_queue_depth = c
                        mod._port_free = [busy]  # the last service ends here
                        if busy > cycles:
                            cycles = busy
                        if busy - mod.latency >= rounds:
                            rounds = busy - mod.latency + 1
                    else:
                        mod._port_free = [0]
            if prof.enabled:
                prof.count("cycles", rounds)
            self.clock += rounds
            self._rr_start = (self._rr_start + 1) % self.num_modules
            return AccessResult(
                cycles, int(counts.max() - 1), counts, int(nodes.size), label
            )
        queued = self._arrive(nodes, label)
        cycles = self._drain()
        rec = self.recorder
        if rec.enabled:
            rec.event(
                "access",
                cycle=0,
                label=label,
                size=queued.size,
                conflicts=queued.conflicts,
                cycles=cycles,
            )
            rec.end_access(cycles)
        return AccessResult(
            cycles, queued.conflicts, queued.module_counts, queued.size, label
        )

    def run_trace(self, trace: AccessTrace, pipelined: bool = False) -> TraceStats:
        """Replay a trace of template accesses; see the class docstring."""
        stats = TraceStats()
        if not pipelined:
            for label, nodes in trace:
                stats.record(self.access(nodes, label=label))
            return stats
        # pipelined: enqueue everything, then drain once
        for label, nodes in trace:
            # per-access conflict bookkeeping still uses the paper's metric
            stats.record(self._arrive(nodes, label))
        if self.recorder.enabled:
            # drain events belong to the shared pipeline, not one access
            self.recorder.begin_access(-1)
        stats.total_cycles = self._drain()
        return stats

    def run_open_loop(self, trace: AccessTrace, arrival_interval: int) -> TraceStats:
        """Open-loop replay: access ``i`` arrives at cycle ``i * interval``.

        Models a steady request stream instead of a barrier or a one-shot
        drain: queues grow whenever the offered load exceeds what the mapping
        lets the array serve, so the resulting sojourn times (with
        ``record_latencies``) expose the mapping's sustainable throughput.
        """
        if arrival_interval < 1:
            raise ValueError(f"arrival_interval must be >= 1, got {arrival_interval}")
        for mod in self.modules:
            mod.reset_clock()  # this loop's clock starts at 0
        stats = TraceStats()
        accesses = list(trace)
        latencies: list[int] | None = [] if self.record_latencies else None
        arrivals: list[int] = []  # arrival cycle of each access so far
        pending = 0
        cycle = 0
        last_completion = 0
        start = self._rr_start
        rec = self.recorder
        recording = rec.enabled
        prof = self.profiler
        with prof.span("open_loop"):
            while len(arrivals) < len(accesses) or pending:
                self.advance_faults(cycle)
                # arrivals scheduled for this cycle
                while (
                    len(arrivals) < len(accesses)
                    and cycle >= len(arrivals) * arrival_interval
                ):
                    label, nodes = accesses[len(arrivals)]
                    queued = self._arrive(nodes, label, key=len(arrivals), cycle=cycle)
                    if recording:
                        rec.event(
                            "access",
                            cycle=cycle,
                            label=label,
                            size=queued.size,
                            conflicts=queued.conflicts,
                        )
                    arrivals.append(cycle)
                    stats.record(queued)
                    pending += queued.size
                if recording:
                    rec.begin_access(-1)  # served requests span accesses
                waiting = pending
                for mod, ((index, _), _), completion in self.issue(
                    cycle, start + cycle
                ):
                    pending -= 1
                    last_completion = max(last_completion, completion)
                    sojourn = completion - arrivals[index]
                    if recording:
                        rec.event(
                            "complete",
                            cycle=completion,
                            module=mod.module_id,
                            access=index,
                            sojourn=sojourn,
                        )
                    if latencies is not None:
                        latencies.append(sojourn)
                if pending and pending == waiting and len(arrivals) == len(accesses):
                    self._check_fault_deadlock(cycle)
                cycle += 1
        if prof.enabled:
            prof.count("cycles", cycle)
        self._rr_start = (start + 1) % self.num_modules
        if latencies is not None:
            self.last_latencies = np.array(latencies, dtype=np.int64)
        stats.total_cycles = last_completion
        return stats

    # -- reporting ---------------------------------------------------------------

    def module_stats(self) -> list[dict]:
        """Per-module service counters accumulated since the last reset."""
        return [
            {
                "module": mod.module_id,
                "served": mod.served,
                "busy_cycles": mod.busy_cycles,
                "max_queue_depth": mod.max_queue_depth,
            }
            for mod in self.modules
        ]

    def reset(self) -> None:
        """Return to a fresh pre-run state.

        Clears module stats and queues, re-arms any attached fault schedule
        from cycle 0, and restores each module's *base* latency — so static
        overrides installed via
        :meth:`~repro.memory.module.MemoryModule.set_base_latency` (e.g. by
        :func:`~repro.memory.faults.apply_faults`) survive reuse of the
        same system.
        """
        for mod in self.modules:
            mod.reset_stats()
            mod.failed = False
            mod.restore_latency()
        self.last_latencies = None
        self._rr_start = 0
        self._access_index = -1
        self.clock = 0
        self._fault_idx = 0
        self._drop_prob = 0.0
        self.dropped = 0
        if self._fault_schedule is not None:
            self._fault_schedule.rewind()
            self._drop_rng = self._fault_schedule.rng

    # -- checkpoint / restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Full JSON-serializable runtime state (see :mod:`repro.serve.durability`).

        Captures the lifetime ``clock``, per-module queues and port clocks,
        fault-schedule advancement, and the drop-lottery RNG position — i.e.
        everything :meth:`reset` would wipe — so :meth:`load_state` can
        resume the array mid-run with fault windows still firing at the same
        absolute cycles.
        """

        def tag_json(tag):
            return list(tag) if isinstance(tag, tuple) else tag

        return {
            "clock": self.clock,
            "rr_start": self._rr_start,
            "access_index": self._access_index,
            "dropped": self.dropped,
            "drop_prob": self._drop_prob,
            "modules": [
                {
                    "queue": [[tag_json(tag), addr] for tag, addr in mod.queue],
                    "served": mod.served,
                    "busy_cycles": mod.busy_cycles,
                    "max_queue_depth": mod.max_queue_depth,
                    "failed": mod.failed,
                    "latency": mod.latency,
                    "base_latency": mod.base_latency,
                    "port_free": list(mod._port_free),
                }
                for mod in self.modules
            ],
            "faults": (
                self._fault_schedule.state_dict()
                if self._fault_schedule is not None
                else None
            ),
        }

    def load_state(self, state: dict) -> None:
        """Resume from a :meth:`state_dict` capture.

        Unlike :meth:`reset`, restore preserves *absolute* time: the
        lifetime ``clock``, each module's port clocks (``_port_free``) and
        the fault cursor come back exactly, so a schedule attached before
        the snapshot keeps injecting at the cycles it would have anyway.
        """

        def tag_py(tag):
            return tuple(tag) if isinstance(tag, list) else tag

        module_states = state["modules"]
        if len(module_states) != self.num_modules:
            raise ValueError(
                f"snapshot has {len(module_states)} modules, "
                f"system has {self.num_modules}"
            )
        self.clock = int(state["clock"])
        self._rr_start = int(state["rr_start"])
        self._access_index = int(state["access_index"])
        self.dropped = int(state["dropped"])
        self._drop_prob = float(state["drop_prob"])
        for mod, mod_state in zip(self.modules, module_states):
            mod.queue = deque(
                (tag_py(tag), int(addr)) for tag, addr in mod_state["queue"]
            )
            mod.served = int(mod_state["served"])
            mod.busy_cycles = int(mod_state["busy_cycles"])
            mod.max_queue_depth = int(mod_state["max_queue_depth"])
            mod.failed = bool(mod_state["failed"])
            mod.latency = int(mod_state["latency"])
            mod.base_latency = int(mod_state["base_latency"])
            mod._port_free = [int(v) for v in mod_state["port_free"]]
        fault_state = state.get("faults")
        if fault_state is not None:
            if self._fault_schedule is None:
                raise ValueError(
                    "snapshot carries fault-schedule state but no schedule "
                    "is attached; attach_faults() the same schedule first"
                )
            self._fault_schedule.load_state(fault_state)
            self._fault_idx = self._fault_schedule.cursor
            self._drop_rng = self._fault_schedule.rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelMemorySystem(M={self.num_modules}, "
            f"interconnect={self.interconnect!r}, mapping={self.mapping!r})"
        )
