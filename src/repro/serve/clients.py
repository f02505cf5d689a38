"""Traffic generators: simulated clients feeding the serving engine.

A client produces template instances over time via :meth:`Client.poll` and
receives completion callbacks via :meth:`Client.notify`.  Open-loop clients
(:class:`PoissonClient`, :class:`BurstyClient`) emit regardless of service
progress, so they expose the engine's sustainable load; the
:class:`ClosedLoopClient` holds fixed concurrency with think time, so it
measures latency at equilibrium.  :class:`TraceClient` replays a recorded
:class:`~repro.memory.trace.AccessTrace` — e.g. one built by
:mod:`repro.bench.workloads` — as an arrival stream, bridging the replay
harness and the serving stack.

What a client asks *for* is drawn from a :class:`TemplateMix`: a weighted
distribution over template families (and sizes) on a fixed tree, with a
compact spec syntax (``"subtree:7=2,path:8=1,level:7=1,composite:15x3=1"``).
"""

from __future__ import annotations

import abc
import math
import random as _stdlib_random
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.memory.trace import AccessTrace
from repro.serve.request import Request
from repro.templates.base import ELEMENTARY_KINDS, TemplateFamily, TemplateInstance
from repro.templates.composite import CompositeSampler, elementary_family
from repro.trees import CompleteBinaryTree

__all__ = [
    "BurstyClient",
    "Client",
    "ClosedLoopClient",
    "MixEntry",
    "PoissonClient",
    "TemplateMix",
    "TraceClient",
    "spawn_seeds",
]


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from one master seed.

    Shards and traffic generators each need their own reproducible stream;
    deriving them as ``seed + i`` couples neighbouring streams (two setups
    whose master seeds differ by one share all but one child).  This helper
    draws the children from a dedicated :mod:`random` stream (numpy-free, so
    it never perturbs any generator the simulation itself uses), guaranteed
    distinct within one spawn.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = _stdlib_random.Random(seed)
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < n:
        child = rng.getrandbits(48)
        if child not in seen:
            seen.add(child)
            seeds.append(child)
    return seeds


@dataclass(frozen=True)
class MixEntry:
    """One line of a template mix: draw ``kind`` of ``size`` nodes with
    relative ``weight`` (composites additionally carry a component count)."""

    kind: str
    size: int
    weight: float = 1.0
    components: int = 2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be finite and > 0, got {self.weight}")
        if self.kind == "composite" and self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components}")


class TemplateMix:
    """A weighted distribution over template instances on one tree.

    :meth:`sample` picks an entry with ``bisect_right(cdf, rng.random())``
    over a CDF built once, exactly as ``rng.choice(n, p=probs)`` builds it
    (``cumsum``, then divide by the last element): the same one double is
    drawn and the same index comes out, so streams match a ``choice`` draw
    bit for bit at a fraction of its per-call cost.
    """

    def __init__(self, tree: CompleteBinaryTree, entries):
        entries = list(entries)
        if not entries:
            raise ValueError("a template mix needs at least one entry")
        self.tree = tree
        self.entries = entries
        self._families: list[TemplateFamily | CompositeSampler] = []
        for entry in entries:
            if entry.kind == "composite":
                sampler = CompositeSampler(tree)
                if entry.size < entry.components:
                    raise ValueError(
                        f"composite size {entry.size} < components {entry.components}"
                    )
                if entry.size > tree.num_nodes // 2:
                    raise ValueError(
                        f"composite size {entry.size} too large for a "
                        f"{tree.num_nodes}-node tree (at most {tree.num_nodes // 2})"
                    )
                self._families.append(sampler)
            else:
                family = elementary_family(entry.kind, entry.size)
                if not family.admits(tree):
                    raise ValueError(
                        f"{entry.kind}({entry.size}) has no instances in a "
                        f"{tree.num_levels}-level tree"
                    )
                self._families.append(family)
        weights = np.array([entry.weight for entry in entries], dtype=np.float64)
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not math.isfinite(total):
            raise ValueError(f"mix weights must sum to a finite total, got {total}")
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def sample(self, rng: np.random.Generator) -> TemplateInstance:
        idx = bisect_right(self._cdf, rng.random())
        entry, family = self.entries[idx], self._families[idx]
        if entry.kind == "composite":
            return family.sample(entry.components, entry.size, rng)
        return family.sample(self.tree, rng)

    @classmethod
    def parse(cls, tree: CompleteBinaryTree, spec: str) -> "TemplateMix":
        """Build a mix from ``kind:size=weight`` comma-separated terms.

        Composites use ``composite:SIZExCOMPONENTS=weight``; weights default
        to 1.  Example: ``"subtree:7=2,path:8=1,composite:15x3=0.5"``.
        """
        entries = []
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            try:
                head, _, weight_str = term.partition("=")
                kind, _, size_str = head.partition(":")
                weight = float(weight_str) if weight_str else 1.0
                if kind == "composite" and "x" in size_str:
                    size_str, _, comp_str = size_str.partition("x")
                    entries.append(
                        MixEntry(kind, int(size_str), weight, int(comp_str))
                    )
                else:
                    entries.append(MixEntry(kind, int(size_str), weight))
            except ValueError as exc:
                raise ValueError(
                    f"bad mix term {term!r} (expected kind:size=weight): {exc}"
                ) from exc
        return cls(tree, entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = ",".join(f"{e.kind}:{e.size}={e.weight:g}" for e in self.entries)
        return f"TemplateMix({terms})"


class Client(abc.ABC):
    """A traffic source.  ``poll`` is called once per cycle while the run is
    accepting arrivals; ``notify``/``notify_shed`` close the loop for
    clients that react to service progress.

    Clients are checkpointable: :meth:`state_dict` captures everything that
    changes as the client runs (RNG position, pacing state, progress
    counters) as JSON-serializable data, and :meth:`load_state` resumes a
    *same-configured* client exactly — the contract
    :mod:`repro.serve.durability` relies on for deterministic recovery.
    """

    def __init__(self, client_id: int, tenant: str | None = None):
        self.client_id = client_id
        self.tenant = tenant
        self.generated = 0

    @abc.abstractmethod
    def poll(self, cycle: int) -> list[TemplateInstance]:
        """Template instances arriving at ``cycle``."""

    def poll_tenants(self, cycle: int) -> list[tuple[TemplateInstance, str | None]]:
        """Like :meth:`poll`, but pairing each instance with its tenant.

        The default tags every instance with this client's ``tenant`` (``None``
        means "default from client id" downstream).  Multi-tenant sources —
        e.g. a fleet shard's feed — override this to deliver per-instance
        tenants; single-tenant clients only ever implement :meth:`poll`.
        """
        return [(instance, self.tenant) for instance in self.poll(cycle)]

    def notify(self, request: Request, cycle: int) -> None:
        """A request from this client completed at ``cycle``."""

    def notify_shed(self, request: Request, cycle: int) -> None:
        """A request from this client was shed at ``cycle``."""

    def state_dict(self) -> dict:
        """JSON-serializable runtime state (configuration is *not* included)."""
        return {"generated": self.generated}

    def load_state(self, state: dict) -> None:
        """Resume from a :meth:`state_dict` capture."""
        self.generated = int(state["generated"])


class PoissonClient(Client):
    """Open-loop memoryless arrivals: ``Poisson(rate)`` instances per cycle."""

    def __init__(
        self,
        client_id: int,
        mix: TemplateMix,
        rate: float,
        seed: int | None = None,
        tenant: str | None = None,
    ):
        super().__init__(client_id, tenant=tenant)
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.mix = mix
        self.rate = rate
        self.rng = np.random.default_rng(seed if seed is not None else client_id)

    def poll(self, cycle: int) -> list[TemplateInstance]:
        n = int(self.rng.poisson(self.rate))
        self.generated += n
        return [self.mix.sample(self.rng) for _ in range(n)]

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["rng"] = self.rng.bit_generator.state
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.rng.bit_generator.state = state["rng"]


class BurstyClient(Client):
    """On/off modulated Poisson traffic.

    The client alternates between an *on* state emitting ``Poisson(rate)``
    arrivals per cycle and a silent *off* state; state durations are
    geometric with means ``mean_on`` / ``mean_off`` cycles.  Burstiness is
    what stresses admission control: the same average load arrives in
    clumps that overflow a bounded queue.
    """

    def __init__(
        self,
        client_id: int,
        mix: TemplateMix,
        rate: float,
        mean_on: float = 20.0,
        mean_off: float = 20.0,
        seed: int | None = None,
        tenant: str | None = None,
    ):
        super().__init__(client_id, tenant=tenant)
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if mean_on < 1 or mean_off < 1:
            raise ValueError("mean_on and mean_off must be >= 1 cycle")
        self.mix = mix
        self.rate = rate
        self._p_leave_on = 1.0 / mean_on
        self._p_leave_off = 1.0 / mean_off
        self.rng = np.random.default_rng(seed if seed is not None else client_id)
        self.on = bool(self.rng.random() < mean_on / (mean_on + mean_off))

    def poll(self, cycle: int) -> list[TemplateInstance]:
        leave = self._p_leave_on if self.on else self._p_leave_off
        if self.rng.random() < leave:
            self.on = not self.on
        if not self.on:
            return []
        n = int(self.rng.poisson(self.rate))
        self.generated += n
        return [self.mix.sample(self.rng) for _ in range(n)]

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["rng"] = self.rng.bit_generator.state
        state["on"] = self.on
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.rng.bit_generator.state = state["rng"]
        self.on = bool(state["on"])


class ClosedLoopClient(Client):
    """Fixed-concurrency client: at most ``concurrency`` requests in flight,
    each reissued ``think_time`` cycles after its predecessor completes."""

    def __init__(
        self,
        client_id: int,
        mix: TemplateMix,
        concurrency: int = 1,
        think_time: int = 0,
        seed: int | None = None,
        tenant: str | None = None,
    ):
        super().__init__(client_id, tenant=tenant)
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {think_time}")
        self.mix = mix
        self.concurrency = concurrency
        self.think_time = think_time
        self.rng = np.random.default_rng(seed if seed is not None else client_id)
        self._ready_at = [0] * concurrency  # one entry per logical slot

    def poll(self, cycle: int) -> list[TemplateInstance]:
        out = []
        for i, ready in enumerate(self._ready_at):
            if ready is not None and ready <= cycle:
                self._ready_at[i] = None  # in flight until notify
                out.append(self.mix.sample(self.rng))
                self.generated += 1
        return out

    def _release_slot(self, cycle: int) -> None:
        for i, ready in enumerate(self._ready_at):
            if ready is None:
                self._ready_at[i] = cycle + self.think_time
                return

    def notify(self, request: Request, cycle: int) -> None:
        self._release_slot(cycle)

    def notify_shed(self, request: Request, cycle: int) -> None:
        self._release_slot(cycle)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["rng"] = self.rng.bit_generator.state
        state["ready_at"] = list(self._ready_at)  # None = slot in flight
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.rng.bit_generator.state = state["rng"]
        ready_at = state["ready_at"]
        if len(ready_at) != self.concurrency:
            raise ValueError(
                f"snapshot has {len(ready_at)} slots, client has "
                f"{self.concurrency}"
            )
        self._ready_at = [None if r is None else int(r) for r in ready_at]


class TraceClient(Client):
    """Replays a recorded :class:`AccessTrace` as an arrival stream.

    Access ``i`` arrives at cycle ``i * interval`` — the serving analogue of
    :meth:`~repro.memory.system.ParallelMemorySystem.run_open_loop` — which
    lets any workload from :mod:`repro.bench.workloads` drive the engine.
    Node arrays are deduplicated (a template instance is a node *set*);
    labels are preserved as the instance kind when they name an elementary
    family, else tagged ``"trace"``.
    """

    def __init__(
        self,
        client_id: int,
        trace: AccessTrace,
        interval: int = 1,
        tenant: str | None = None,
    ):
        super().__init__(client_id, tenant=tenant)
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = interval
        self._instances: list[TemplateInstance] = []
        for label, nodes in trace:
            unique = np.unique(np.asarray(nodes, dtype=np.int64))
            kind = label if label in ELEMENTARY_KINDS else "trace"
            self._instances.append(TemplateInstance(kind=kind, nodes=unique))
        self._next = 0

    def poll(self, cycle: int) -> list[TemplateInstance]:
        out = []
        while (
            self._next < len(self._instances)
            and cycle >= self._next * self.interval
        ):
            out.append(self._instances[self._next])
            self._next += 1
            self.generated += 1
        return out

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._instances)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["next"] = self._next
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._next = int(state["next"])
