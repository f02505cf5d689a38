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
"""

from __future__ import annotations

from collections import deque

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

    def advance_faults(self, now: int, emit_cycle: int | None = None) -> None:
        """Apply every scheduled fault edge with ``cycle <= now``.

        ``emit_cycle`` overrides the cycle stamped on telemetry events (the
        barrier drain counts locally while the schedule runs on the
        lifetime clock; everywhere else the two coincide).
        """
        if self._fault_schedule is None:
            return
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

    # -- core cycle loop -----------------------------------------------------

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
        """
        limit = self.interconnect.issue_limit(self.num_modules)
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
                if recording:
                    for mod in self.modules:
                        if mod.queue:
                            rec.event(
                                "queue_depth",
                                cycle=cycles,
                                module=mod.module_id,
                                depth=len(mod.queue),
                            )
                issued = 0
                # fair round-robin over modules so a narrow interconnect
                # does not starve high-numbered banks
                for off in range(self.num_modules):
                    if issued >= limit:
                        if recording and pending:
                            rec.event(
                                "stall",
                                cycle=cycles,
                                where="interconnect",
                                pending=pending,
                            )
                        break
                    mod = self.modules[(start + cycles + off) % self.num_modules]
                    while issued < limit:
                        served = mod.step(cycles)
                        if served is None:
                            break
                        issued += 1
                        if self.maybe_drop(mod, served, cycles):
                            continue  # lost in flight; re-queued for another go
                        pending -= 1
                        completion = cycles + mod.latency
                        last_completion = max(last_completion, completion)
                        if recording:
                            rec.event(
                                "complete", cycle=completion, module=mod.module_id
                            )
                        if latencies is not None:
                            latencies.append(completion)
                if issued == 0 and pending:
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

    # -- public API ------------------------------------------------------------

    def access(self, nodes: np.ndarray, label: str = "") -> AccessResult:
        """Simulate one parallel access to a set of tree nodes."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            raise ValueError("an access needs at least one node")
        colors = self.mapping.colors_of(nodes)
        counts = np.bincount(colors, minlength=self.num_modules)
        for mod in self.modules:
            mod.reset_clock()  # each barrier access starts a fresh clock
        rec = self.recorder
        if rec.enabled:
            self._access_index += 1
            rec.begin_access(self._access_index, label)
            self._emit_conflicts(counts)
        for tag, (node, color) in enumerate(zip(nodes, colors)):
            self.modules[int(color)].enqueue(tag, int(node))
        cycles = self._drain()
        if rec.enabled:
            rec.event(
                "access",
                cycle=0,
                label=label,
                size=int(nodes.size),
                conflicts=int(counts.max() - 1),
                cycles=cycles,
            )
            rec.end_access(cycles)
        return AccessResult(
            cycles=cycles,
            conflicts=int(counts.max() - 1),
            module_counts=counts,
            size=int(nodes.size),
            label=label,
        )

    def run_trace(self, trace: AccessTrace, pipelined: bool = False) -> TraceStats:
        """Replay a trace of template accesses; see the class docstring."""
        stats = TraceStats()
        if not pipelined:
            for label, nodes in trace:
                stats.record(self.access(nodes, label=label))
            return stats
        # pipelined: enqueue everything, then drain once.  The drain counts
        # cycles from 0, so clear port clocks left over from a previous run.
        for mod in self.modules:
            mod.reset_clock()
        rec = self.recorder
        total_counts = np.zeros(self.num_modules, dtype=np.int64)
        for label, nodes in trace:
            nodes = np.asarray(nodes, dtype=np.int64)
            colors = self.mapping.colors_of(nodes)
            counts = np.bincount(colors, minlength=self.num_modules)
            total_counts += counts
            if rec.enabled:
                self._access_index += 1
                rec.begin_access(self._access_index, label)
                self._emit_conflicts(counts)
            for tag, (node, color) in enumerate(zip(nodes, colors)):
                self.modules[int(color)].enqueue(tag, int(node))
            # per-access conflict bookkeeping still uses the paper's metric
            stats.record(
                AccessResult(
                    cycles=0,
                    conflicts=int(counts.max() - 1),
                    module_counts=counts,
                    size=int(nodes.size),
                    label=label,
                )
            )
        if rec.enabled:
            # drain events belong to the shared pipeline, not one access
            rec.begin_access(-1)
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
        limit = self.interconnect.issue_limit(self.num_modules)
        latencies: list[int] | None = [] if self.record_latencies else None
        enqueue_time: dict[tuple[int, int], int] = {}
        next_idx = 0
        pending = 0
        cycle = 0
        last_completion = 0
        start = self._rr_start
        rec = self.recorder
        recording = rec.enabled
        prof = self.profiler
        with prof.span("open_loop"):
            while next_idx < len(accesses) or pending:
                self.advance_faults(cycle)
                # arrivals scheduled for this cycle
                while (
                    next_idx < len(accesses)
                    and cycle >= next_idx * arrival_interval
                ):
                    label, nodes = accesses[next_idx]
                    nodes = np.asarray(nodes, dtype=np.int64)
                    colors = self.mapping.colors_of(nodes)
                    counts = np.bincount(colors, minlength=self.num_modules)
                    if recording:
                        self._access_index += 1
                        rec.begin_access(self._access_index, label)
                        self._emit_conflicts(counts, cycle=cycle)
                        rec.event(
                            "access",
                            cycle=cycle,
                            label=label,
                            size=int(nodes.size),
                            conflicts=int(counts.max() - 1),
                        )
                    for tag, (node, color) in enumerate(zip(nodes, colors)):
                        self.modules[int(color)].enqueue((next_idx, tag), int(node))
                        enqueue_time[(next_idx, tag)] = cycle
                    stats.record(
                        AccessResult(
                            cycles=0,
                            conflicts=int(counts.max() - 1),
                            module_counts=counts,
                            size=int(nodes.size),
                            label=label,
                        )
                    )
                    pending += nodes.size
                    next_idx += 1
                if recording:
                    rec.begin_access(-1)  # served requests span accesses
                    for mod in self.modules:
                        if mod.queue:
                            rec.event(
                                "queue_depth",
                                cycle=cycle,
                                module=mod.module_id,
                                depth=len(mod.queue),
                            )
                issued = 0
                for off in range(self.num_modules):
                    if issued >= limit:
                        if recording and pending:
                            rec.event(
                                "stall",
                                cycle=cycle,
                                where="interconnect",
                                pending=pending,
                            )
                        break
                    mod = self.modules[(start + cycle + off) % self.num_modules]
                    while issued < limit:
                        served = mod.step(cycle)
                        if served is None:
                            break
                        issued += 1
                        if self.maybe_drop(mod, served, cycle):
                            continue  # lost in flight; re-queued for another go
                        pending -= 1
                        completion = cycle + mod.latency
                        last_completion = max(last_completion, completion)
                        if recording:
                            rec.event(
                                "complete",
                                cycle=completion,
                                module=mod.module_id,
                                access=served[0][0],
                                sojourn=completion - enqueue_time[served[0]],
                            )
                        if latencies is not None:
                            latencies.append(completion - enqueue_time[served[0]])
                if issued == 0 and pending and next_idx >= len(accesses):
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
