"""Layer tracing for the e2e benchmark's traced run.

The traced run is one extra child process per workload.  Before it builds
anything, :func:`install` replaces the public entry points of each layer
with wrappers that record a span (name, start, end, parent span, root id).
It patches class attributes, which reaches objects the layers build lazily
(repair mappings, restarted shard engines).  The patch lives only inside
that child process; ``src/`` is never edited.  Per-node boundaries
(``MemoryModule.step``, the drop lottery) get counters, never spans.

Self time of a span is its duration minus the durations of its direct
children: calls are synchronous, so children never overlap and their sum
is the part of the interval they cover.  The time of the timed phase that
no root span covers is the ``unattributed`` row, so the rows of
:meth:`Tracer.table` add up to the traced wall time.

Aggregates cover every span.  Only the first ``SPAN_CAP`` spans are kept
for the Chrome trace export, which keeps memory and the file bounded on
workloads with millions of calls.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["Tracer", "format_table", "install", "layer_metrics", "tracing_overhead"]

SPAN_CAP = 20_000


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self._names: list[str] = []
        self._slots: dict[str, int] = {}
        self._calls: list[int] = []
        self._total: list[float] = []
        self._self: list[float] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counters: dict[str, list[int]] = {}
        #: kept spans: (name slot, start, end, parent id, root seq, id)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.root_s = 0.0
        self._next_id = 0
        self._root_seq = -1
        self._origin = time.perf_counter()

    # -- wrapping --------------------------------------------------------------

    def _slot(self, name: str) -> int:
        if name not in self._slots:
            self._slots[name] = len(self._names)
            self._names.append(name)
            self._calls.append(0)
            self._total.append(0.0)
            self._self.append(0.0)
        return self._slots[name]

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (defined on ``owner`` itself) until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after(args, result)`` runs once the span has closed, for counters
        that need the call's arguments or result.
        """
        original = owner.__dict__[attr]
        slot = self._slot(name)
        calls, total, self_time = self._calls, self._total, self._self
        stack, spans = self._stack, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            if not stack:
                tracer._root_seq += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[slot] += 1
                total[slot] += duration
                self_time[slot] += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[0]
                else:
                    parent_id = -1
                    tracer.root_s += duration
                if len(spans) < SPAN_CAP:
                    spans.append((slot, start, end, parent_id, tracer._root_seq, sid))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, result)
            return result

        self.patch(owner, attr, wrapper)

    def counter(self, name: str) -> list[int]:
        """A mutable ``[value]`` cell reported as ``name``."""
        return self._counters.setdefault(name, [0])

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (call at the timed phase start)."""
        n = len(self._names)
        self._calls[:] = [0] * n
        self._total[:] = [0.0] * n
        self._self[:] = [0.0] * n
        self.spans.clear()
        self.dropped = 0
        self.root_s = 0.0
        self._root_seq = -1
        for cell in self._counters.values():
            cell[0] = 0
        self._origin = time.perf_counter()

    def counters(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._counters.items()}

    @property
    def span_names(self) -> set[str]:
        """Names of every installed span, whether or not it ran."""
        return set(self._slots)

    def table(self, wall_s: float) -> list[dict]:
        """Rows of the spans that ran plus the ``unattributed`` row, by self time."""
        rows = [
            {
                "name": name,
                "calls": self._calls[i],
                "total_s": self._total[i],
                "self_s": self._self[i],
                "self_share": self._self[i] / wall_s if wall_s else 0.0,
            }
            for i, name in enumerate(self._names)
            if self._calls[i]
        ]
        rows.sort(key=lambda row: -row["self_s"])
        unattributed = wall_s - self.root_s
        rows.append(
            {
                "name": "unattributed",
                "calls": 0,
                "total_s": unattributed,
                "self_s": unattributed,
                "self_share": unattributed / wall_s if wall_s else 0.0,
            }
        )
        return rows

    def write_chrome(self, path: Path, meta: dict) -> Path:
        """Write the kept spans as Chrome trace JSON (``chrome://tracing``)."""
        events = [
            {
                "name": self._names[slot],
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent, "step": root},
            }
            for slot, start, end, parent, root, sid in self.spans
        ]
        meta = dict(meta, spans_kept=len(self.spans), spans_dropped=self.dropped)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
        )
        return path


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core.mapping import TreeMapping
    from repro.fleet.coordinator import FleetCoordinator
    from repro.fleet.router import ROUTERS
    from repro.fleet.supervisor import FleetSupervisor
    from repro.host.driver import Driver
    from repro.memory.module import MemoryModule
    from repro.memory.system import ParallelMemorySystem
    from repro.serve.batching import BatchPolicy
    from repro.serve.clients import PoissonClient
    from repro.serve.durability import CheckpointStore, ServeJournal
    from repro.serve.engine import ServeEngine
    from repro.serve.request import AdmissionQueue

    # per-node counters: one call per module per cycle, too many for spans
    step_calls = tracer.counter("memory.module_step.calls")
    served = tracer.counter("memory.items_served")
    module_step = MemoryModule.step

    def counted_step(module, now):
        step_calls[0] += 1
        result = module_step(module, now)
        if result is not None:
            served[0] += 1
        return result

    tracer.patch(MemoryModule, "step", counted_step)

    drops = tracer.counter("memory.drops")
    maybe_drop = ParallelMemorySystem.maybe_drop

    def counted_drop(system, module, request, cycle):
        dropped = maybe_drop(system, module, request, cycle)
        if dropped:
            drops[0] += 1
        return dropped

    tracer.patch(ParallelMemorySystem, "maybe_drop", counted_drop)

    # engine cycles in which any module served (the counter sits inside the
    # engine.step span installed below)
    engine_steps = tracer.counter("serve.engine.steps")
    busy_steps = tracer.counter("serve.engine.busy_steps")
    engine_step = ServeEngine.step

    def counted_engine_step(engine):
        before = served[0]
        stepped = engine_step(engine)
        if stepped:
            engine_steps[0] += 1
            if served[0] > before:
                busy_steps[0] += 1
        return stepped

    tracer.patch(ServeEngine, "step", counted_engine_step)

    snapshot_bytes = tracer.counter("serve.durability.snapshot.bytes")

    def snapshot_written(args, snapshot):
        store = args[0]
        snapshot_bytes[0] += _file_size(store.snapshot_path(snapshot.cycle))

    fleet_snapshot_bytes = tracer.counter("fleet.supervisor.fleet_snapshot.bytes")

    def fleet_snapshot_written(args, _result):
        supervisor, cycle = args
        fleet_snapshot_bytes[0] += _file_size(supervisor._fleet_snapshot_path(cycle))

    tracer.span(TreeMapping, "colors_of", "core.colors_of")
    tracer.span(ParallelMemorySystem, "access", "memory.access")
    tracer.span(ParallelMemorySystem, "advance_faults", "memory.advance_faults")
    tracer.span(PoissonClient, "poll", "serve.clients.poll")
    tracer.span(AdmissionQueue, "offer", "serve.admission.offer")
    tracer.span(AdmissionQueue, "admit_waiting", "serve.admission.admit_waiting")
    tracer.span(BatchPolicy, "form", "serve.batching.form")
    tracer.span(ServeEngine, "step", "serve.engine.step")
    tracer.span(ServeEngine, "finish", "serve.engine.finish")
    tracer.span(ServeJournal, "record", "serve.durability.journal")
    tracer.span(
        CheckpointStore, "write_snapshot", "serve.durability.snapshot",
        after=snapshot_written,
    )
    tracer.span(Driver, "tick", "host.tick")
    for router in {cls for cls in ROUTERS.values() if "place" in cls.__dict__}:
        tracer.span(router, "place", "fleet.router.place")
    tracer.span(FleetCoordinator, "step", "fleet.coordinator.step")
    tracer.span(FleetCoordinator, "finish", "fleet.coordinator.finish")
    # the supervisor exposes no public name for these two; the driver binds
    # its checkpoint callable at construction, after this patch is in place
    tracer.span(
        FleetSupervisor, "_write_fleet_snapshot", "fleet.supervisor.fleet_snapshot",
        after=fleet_snapshot_written,
    )
    tracer.span(FleetSupervisor, "_restore_shard", "fleet.supervisor.restore")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer numbers the tracer measured, by metric name.

    Every ``<span>.self_share`` and ``<span>.calls`` metric of
    ``LAYER_METRICS`` reads the span of that name (or, for ``.calls``, the
    counter of the full name).  A name no installed span or counter has
    raises ``KeyError``, so a renamed boundary cannot read 0 unnoticed; a
    span that is installed but never ran reads 0.
    """
    from metrics import LAYER_METRICS

    rows = {row["name"]: row for row in tracer.table(wall_s)}
    counters = tracer.counters()

    def row(name: str, field: str) -> float:
        if name not in tracer.span_names:
            raise KeyError(f"no span named {name!r} is installed")
        return rows[name][field] if name in rows else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, _, stat = metric.name.rpartition(".")
        if stat == "self_share":
            out[metric.name] = row(span, "self_share")
        elif stat == "calls":
            if metric.name in counters:
                out[metric.name] = counters[metric.name]
            else:
                out[metric.name] = row(span, "calls")
    out["serve.durability.journal.records"] = row("serve.durability.journal", "calls")
    step_calls = counters["memory.module_step.calls"]
    out["memory.items_served"] = counters["memory.items_served"]
    out["memory.module_step.useful_ratio"] = ratio(
        counters["memory.items_served"], step_calls
    )
    out["memory.drops"] = counters["memory.drops"]
    out["serve.engine.busy_cycle_ratio"] = ratio(
        counters["serve.engine.busy_steps"], counters["serve.engine.steps"]
    )
    out["serve.durability.snapshot.bytes_mean"] = ratio(
        counters["serve.durability.snapshot.bytes"],
        row("serve.durability.snapshot", "calls"),
    )
    out["fleet.supervisor.fleet_snapshot.bytes_mean"] = ratio(
        counters["fleet.supervisor.fleet_snapshot.bytes"],
        row("fleet.supervisor.fleet_snapshot", "calls"),
    )
    out["trace.unattributed_share"] = rows["unattributed"]["self_share"]
    return out


def tracing_overhead(untraced_items_per_s: float, traced_items_per_s: float) -> float:
    """Fractional slowdown of the traced run: 0.25 means 25% fewer items/s."""
    if traced_items_per_s <= 0:
        return 0.0
    return untraced_items_per_s / traced_items_per_s - 1.0


def format_table(rows: list[dict], wall_s: float) -> str:
    """The per-layer table as aligned text."""
    width = max(len(row["name"]) for row in rows)
    lines = [
        f"{'layer':<{width}}  {'calls':>10}  {'total_s':>10}  {'self_s':>10}  {'self%':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<{width}}  {row['calls']:>10}  {row['total_s']:>10.4f}  "
            f"{row['self_s']:>10.4f}  {100 * row['self_share']:>6.2f}%"
        )
    accounted = sum(row["self_s"] for row in rows)
    lines.append(f"{'wall':<{width}}  {'':>10}  {wall_s:>10.4f}  {accounted:>10.4f}")
    return "\n".join(lines)
