"""A serving run as data: :class:`EngineConfig` and its one builder.

A serving run is fully determined by the paper's parameters — tree height
``levels`` (or a saved ``mapping``), ``modules`` M, the template
``workload`` mix and the composite bound ``batch_components`` (the paper's
``c``) — plus a few serving settings.  :class:`EngineConfig` holds exactly
those.  Its field defaults are the ``pmtree serve`` flag defaults, its JSON
form is the ``config.json`` a durable run keeps in its state dir, and
:meth:`EngineConfig.build` is the one place a config becomes an engine and
its clients: ``pmtree serve``, ``recover`` and ``daemon`` and the perf
matrix all build through it.

:class:`JsonConfig` is that JSON form, shared with
:class:`~repro.fleet.config.FleetConfig`.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass

from repro.core import ColorMapping
from repro.io import load_faults, load_mapping
from repro.memory import FaultSchedule, ParallelMemorySystem, parse_faults
from repro.obs.events import EventRecorder
from repro.serve.clients import (
    BurstyClient,
    ClosedLoopClient,
    PoissonClient,
    TemplateMix,
    spawn_seeds,
)
from repro.serve.engine import ServeEngine
from repro.trees import CompleteBinaryTree

__all__ = ["EngineConfig", "JsonConfig", "fault_schedule", "resolve_faults"]


def resolve_faults(spec: str):
    """Turn a ``--faults`` value into a FaultModel or FaultSchedule.

    ``@path.json`` loads a spec saved by :func:`repro.io.save_faults`;
    anything else goes through :func:`repro.memory.faults.parse_faults`
    (static terms like ``slow=3:2,failed=5`` give a FaultModel, timed terms
    like ``fail=3@50:400`` give a FaultSchedule).
    """
    if spec.startswith("@"):
        return load_faults(spec[1:])
    return parse_faults(spec)


def fault_schedule(spec: str) -> FaultSchedule:
    """:func:`resolve_faults`, with a static model lifted to open windows
    (serving is cycle-driven, so it only speaks schedules)."""
    faults = resolve_faults(spec)
    if isinstance(faults, FaultSchedule):
        return faults
    return FaultSchedule.from_model(faults)


def _matches(value, option) -> bool:
    if option is type(None):
        return value is None
    if isinstance(value, bool) and option is not bool:
        return False  # JSON true is not a count
    if option is float:
        return isinstance(value, (int, float))
    if typing.get_origin(option) is list:
        (item,) = typing.get_args(option)
        return isinstance(value, list) and all(isinstance(v, item) for v in value)
    return isinstance(value, option)


class JsonConfig:
    """The ``config.json`` form of a frozen config dataclass."""

    def _json_fields(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """The ``config.json`` text: every field, in declaration order."""
        return json.dumps(self._json_fields(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str = "config.json"):
        """Parse ``config.json`` text.  A key the text lacks (an older
        file) takes the field default.

        Raises :class:`ValueError` naming ``source`` — and the key, where
        one is at fault — for text that is not JSON, a top level that is not
        an object, an unknown key or a value of the wrong type.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}: not valid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"{source}: expected a JSON object, got {type(payload).__name__}"
            )
        hints = typing.get_type_hints(cls)
        declared = {f.name: f.type for f in dataclasses.fields(cls)}
        for key, value in payload.items():
            if key not in declared:
                raise ValueError(f"{source}: unknown key {key!r}")
            hint = hints[key]
            options = (
                typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
            )
            if not any(_matches(value, option) for option in options):
                raise ValueError(
                    f"{source}: key {key!r} must be {declared[key]}, got {value!r}"
                )
        return cls(**payload)


@dataclass(frozen=True)
class EngineConfig(JsonConfig):
    """Everything that determines a serving run.

    The fields are the ``pmtree serve`` flags that shape the run (the
    ``--state-dir`` / ``--crash-at`` harness flags are per-invocation and
    stay out).  ``events_capacity`` bounds the recorder's ring buffer (the
    daemon's ``--events-capacity``); ``daemon`` marks a ``pmtree daemon``
    run, whose clients end with the ``/submit`` feed.
    """

    levels: int = 11
    modules: int = 15
    mapping: str | None = None
    policy: str = "greedy-pack"
    traffic: str = "poisson"
    arrival_rate: float = 0.2
    clients: int = 4
    cycles: int = 2000
    workload: str = "subtree:15=1,path:11=1,level:7=1"
    queue_capacity: int = 256
    admission: str = "block"
    batch_components: int = 4
    deadline: int | None = None
    think_time: int = 0
    seed: int = 0
    obs: str | None = None
    faults: str | None = None
    repair: str = "none"
    retry_timeout: int | None = None
    max_retries: int = 3
    backoff_base: int = 8
    backoff_cap: int = 128
    checkpoint_every: int = 100
    events_capacity: int | None = None
    daemon: bool = False

    def _json_fields(self) -> dict:
        fields = super()._json_fields()
        if not self.daemon:
            del fields["daemon"]  # a serve run's config.json has no such key
        return fields

    def build(self, profiler=None, recorder=None):
        """Build ``(engine, clients, recorder)``.

        A pure function of the config: two calls give two identically
        configured setups, which is what crash recovery needs to restart
        "the process".  ``recorder`` replaces the one ``obs`` asks for (an
        :class:`~repro.obs.events.EventRecorder` bounded by
        ``events_capacity``); ``profiler`` is shared by the memory system
        and the engine.  A daemon config appends a
        :class:`~repro.host.daemon.SubmitFeed` after the traffic clients, so
        HTTP-submitted work is part of the same deterministic, recoverable
        client set.
        """
        if self.mapping:
            mapping = load_mapping(self.mapping)
            tree = mapping.tree
        else:
            tree = CompleteBinaryTree(self.levels)
            mapping = ColorMapping.for_modules(tree, self.modules)
        mix = TemplateMix.parse(tree, self.workload)
        if recorder is None and self.obs:
            recorder = EventRecorder(capacity=self.events_capacity)
        pms = ParallelMemorySystem(mapping, recorder=recorder, profiler=profiler)
        if self.faults:
            pms.attach_faults(fault_schedule(self.faults))
        engine = ServeEngine(
            pms,
            policy=self.policy,
            queue_capacity=self.queue_capacity,
            admission=self.admission,
            max_batch_components=self.batch_components,
            deadline=self.deadline,
            retry_timeout=self.retry_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            repair=self.repair,
            profiler=profiler,
        )
        n = self.clients
        per_client = self.arrival_rate / n
        # the feed's seed rides index N so the traffic clients' seeds 0..N-1
        # are exactly what a plain serve run draws (spawn_seeds is sequential)
        seeds = spawn_seeds(self.seed, n + 1)
        if self.traffic == "poisson":
            clients = [PoissonClient(i, mix, per_client, seed=seeds[i]) for i in range(n)]
        elif self.traffic == "bursty":
            clients = [BurstyClient(i, mix, per_client, seed=seeds[i]) for i in range(n)]
        else:
            clients = [
                ClosedLoopClient(i, mix, think_time=self.think_time, seed=seeds[i])
                for i in range(n)
            ]
        if self.daemon:
            from repro.host.daemon import SubmitFeed

            clients.append(SubmitFeed(n, tree, seed=seeds[n]))
        return engine, clients, recorder
