"""Fault injection for the memory system: static faults, timed fault
schedules, and conflict-aware repair.

Real module arrays degrade: a bank can run slow (thermal throttling,
retries), drop requests transiently, or drop out entirely — and then come
back.  Three layers model this:

* :class:`FaultModel` — a *static* fault state (slow / failed modules)
  applied before a run by :func:`apply_faults`;
* :class:`FaultSchedule` — a seeded sequence of *timed* windows (module
  fails at cycle ``t`` and recovers at ``t'``, slowdown windows, transient
  per-request drop probability) applied **during** stepping by
  :class:`~repro.memory.system.ParallelMemorySystem`, emitting
  ``fault_inject`` / ``fault_recover`` telemetry through :mod:`repro.obs`;
* repair mappings — when a module dies its nodes must live somewhere.
  :class:`RemappedMapping` is the oblivious baseline (round-robin over
  survivors; silently *destroys* the mapping's conflict-freeness
  guarantees), and :class:`ColorRepairMapping` recolors the dead nodes
  greedily against the surviving color structure so the added ``S(K)`` /
  ``P(N)`` conflicts stay as small as possible.  :func:`repair_comparison`
  quantifies the gap.

The guarantees of Sections 3-4 are properties of the intact mapping; the
fault tests verify both that they hold intact and exactly how they degrade
(and how much repair recovers) under faults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.mapping import TreeMapping
from repro.memory.interconnect import Interconnect
from repro.memory.system import ParallelMemorySystem
from repro.obs.events import NullRecorder

__all__ = [
    "ColorRepairMapping",
    "FaultModel",
    "FaultSchedule",
    "FaultWindow",
    "RemappedMapping",
    "apply_faults",
    "parse_faults",
    "per_shard_schedules",
    "repair_comparison",
]


@dataclass(frozen=True)
class FaultModel:
    """Declares which modules are slow or dead.

    Attributes
    ----------
    slow:
        ``{module_id: latency}`` — cycles per service for throttled modules.
    failed:
        Module ids that serve nothing; their nodes are remapped.
    """

    slow: dict[int, int] = field(default_factory=dict)
    failed: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "failed", frozenset(self.failed))
        for module, latency in self.slow.items():
            if latency < 1:
                raise ValueError(f"latency for module {module} must be >= 1")
        overlap = set(self.slow) & self.failed
        if overlap:
            raise ValueError(f"modules both slow and failed: {sorted(overlap)}")

    def validate_against(self, num_modules: int) -> None:
        bad = [m for m in list(self.slow) + list(self.failed) if not 0 <= m < num_modules]
        if bad:
            raise ValueError(f"fault refers to unknown modules {sorted(bad)}")
        if len(self.failed) >= num_modules:
            raise ValueError("cannot fail every module")

    # -- spec / JSON round-trip ------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultModel":
        """Parse a static spec like ``"slow=3:2,failed=5,failed=7"``.

        Terms are comma-separated and repeatable: ``slow=MODULE:LATENCY``
        and ``failed=MODULE``.
        """
        slow: dict[int, int] = {}
        failed: set[int] = set()
        for term in _split_terms(spec):
            key, _, value = term.partition("=")
            try:
                if key == "slow":
                    mod_str, _, lat_str = value.partition(":")
                    slow[int(mod_str)] = int(lat_str)
                elif key == "failed":
                    failed.add(int(value))
                else:
                    raise ValueError(f"unknown term {key!r}")
            except ValueError as exc:
                raise ValueError(
                    f"bad fault term {term!r} (expected slow=M:LAT or failed=M): {exc}"
                ) from exc
        return cls(slow=slow, failed=frozenset(failed))

    def to_json(self) -> dict:
        return {
            "type": "fault_model",
            "slow": {str(m): lat for m, lat in sorted(self.slow.items())},
            "failed": sorted(self.failed),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FaultModel":
        if payload.get("type") != "fault_model":
            raise ValueError(f"not a fault model payload: {payload.get('type')!r}")
        return cls(
            slow={int(m): int(lat) for m, lat in payload.get("slow", {}).items()},
            failed=frozenset(int(m) for m in payload.get("failed", [])),
        )


@dataclass(frozen=True)
class FaultWindow:
    """One timed fault: a ``kind`` affecting ``module`` over ``[start, end)``.

    ``kind`` is ``"fail"`` (module serves nothing), ``"slow"`` (service
    latency raised to ``latency``) or ``"drop"`` (array-wide: each served
    request is lost and re-queued with probability ``drop_prob``; ``module``
    is ignored and stored as ``-1``).  ``end=None`` means the fault never
    recovers within the run.
    """

    kind: str
    module: int
    start: int
    end: int | None = None
    latency: int = 1
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "slow", "drop"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"window [{self.start}, {self.end}) is empty")
        if self.kind == "slow" and self.latency < 2:
            raise ValueError("a slowdown needs latency >= 2")
        if self.kind == "drop":
            if not 0.0 < self.drop_prob <= 1.0:
                raise ValueError(f"drop_prob must be in (0, 1], got {self.drop_prob}")
            object.__setattr__(self, "module", -1)

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind, "start": self.start, "end": self.end}
        if self.kind == "drop":
            payload["drop_prob"] = self.drop_prob
        else:
            payload["module"] = self.module
        if self.kind == "slow":
            payload["latency"] = self.latency
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "FaultWindow":
        return cls(
            kind=payload["kind"],
            module=int(payload.get("module", -1)),
            start=int(payload["start"]),
            end=None if payload.get("end") is None else int(payload["end"]),
            latency=int(payload.get("latency", 1)),
            drop_prob=float(payload.get("drop_prob", 0.0)),
        )


class FaultSchedule:
    """A seeded sequence of timed fault windows, applied *during* stepping.

    Attach to a system with
    :meth:`~repro.memory.system.ParallelMemorySystem.attach_faults`; the
    system applies each window's start/end transition as its cycle counter
    passes it, emitting ``fault_inject`` / ``fault_recover`` events when a
    recorder is enabled.  ``seed`` drives the per-request drop lottery so a
    schedule replays identically.
    """

    def __init__(self, windows, seed: int = 0):
        self.windows: tuple[FaultWindow, ...] = tuple(windows)
        self.seed = seed
        #: transitions already applied by an attached system (runtime state;
        #: advances as the system's clock passes window edges)
        self.cursor = 0
        self._rng: np.random.Generator | None = None
        by_module: dict[tuple[str, int], list[FaultWindow]] = {}
        for w in self.windows:
            by_module.setdefault((w.kind, w.module), []).append(w)
        for (kind, module), group in by_module.items():
            group = sorted(group, key=lambda w: w.start)
            for a, b in zip(group, group[1:]):
                if a.end is None or b.start < a.end:
                    raise ValueError(
                        f"overlapping {kind} windows for module {module}: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )

    # -- runtime (advancement) state -------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The drop-lottery generator, created lazily from ``seed``.

        The schedule — not the attached system — owns the lottery, so its
        position travels with the schedule through :meth:`state_dict` /
        :func:`repro.io.save_faults` and a restored schedule resumes its
        drop sequence exactly where it left off.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def rewind(self) -> None:
        """Re-arm from cycle 0: cursor to the first edge, lottery re-seeded."""
        self.cursor = 0
        self._rng = np.random.default_rng(self.seed)

    def state_dict(self) -> dict:
        """JSON-serializable advancement state (cursor + lottery position)."""
        return {"cursor": self.cursor, "rng": self.rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        """Resume from a :meth:`state_dict` capture."""
        cursor = int(state["cursor"])
        num_edges = len(self.transitions())
        if not 0 <= cursor <= num_edges:
            raise ValueError(
                f"cursor {cursor} out of range for a schedule with "
                f"{num_edges} transitions"
            )
        self.cursor = cursor
        self._rng = np.random.default_rng(self.seed)
        self._rng.bit_generator.state = state["rng"]

    def validate_against(self, num_modules: int) -> None:
        bad = sorted(
            {w.module for w in self.windows if w.kind != "drop"}
            - set(range(num_modules))
        )
        if bad:
            raise ValueError(f"fault schedule refers to unknown modules {bad}")

    def transitions(self) -> list[tuple[int, str, FaultWindow]]:
        """All ``(cycle, "start"|"end", window)`` edges in time order."""
        edges = [(w.start, "start", w) for w in self.windows]
        edges += [(w.end, "end", w) for w in self.windows if w.end is not None]
        # starts before ends at the same cycle is arbitrary but deterministic
        return sorted(edges, key=lambda e: (e[0], e[1] == "end", e[2].module))

    def failed_at(self, cycle: int) -> frozenset[int]:
        """Modules failed at ``cycle`` (for analysis; the system tracks live)."""
        return frozenset(
            w.module
            for w in self.windows
            if w.kind == "fail"
            and w.start <= cycle
            and (w.end is None or cycle < w.end)
        )

    @property
    def ever_failed(self) -> frozenset[int]:
        return frozenset(w.module for w in self.windows if w.kind == "fail")

    @classmethod
    def from_model(cls, model: FaultModel, seed: int = 0) -> "FaultSchedule":
        """Lift a static :class:`FaultModel` into open-ended windows.

        Cycle-driven consumers (the serving engine, pipelined runs) speak
        schedules; this makes a static model usable there: every failure
        and slowdown starts at cycle 0 and never recovers.
        """
        windows = [
            FaultWindow(kind="fail", module=module, start=0)
            for module in sorted(model.failed)
        ]
        windows += [
            FaultWindow(kind="slow", module=module, start=0, latency=latency)
            for module, latency in sorted(model.slow.items())
        ]
        return cls(windows, seed=seed)

    # -- spec / JSON round-trip ------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse a schedule spec.

        Comma-separated, repeatable terms; windows use ``@START:END``
        (omit ``:END`` for "never recovers"):

        * ``fail=MODULE@START:END`` — module outage window;
        * ``slow=MODULE:LATENCY@START:END`` — slowdown window;
        * ``drop=PROB@START:END`` — array-wide request-drop window;
        * ``seed=N`` — RNG seed for the drop lottery.

        Static terms (``slow=M:LAT``, ``failed=M`` with no ``@``) are
        accepted as windows starting at cycle 0 that never recover, so one
        spec language covers both :class:`FaultModel` and schedules.
        """
        windows: list[FaultWindow] = []
        seed = 0
        for term in _split_terms(spec):
            key, _, value = term.partition("=")
            try:
                if key == "seed":
                    seed = int(value)
                    continue
                value, _, window_str = value.partition("@")
                start, end = _parse_window(window_str)
                if key == "fail" or key == "failed":
                    windows.append(FaultWindow("fail", int(value), start, end))
                elif key == "slow":
                    mod_str, _, lat_str = value.partition(":")
                    windows.append(
                        FaultWindow(
                            "slow", int(mod_str), start, end, latency=int(lat_str)
                        )
                    )
                elif key == "drop":
                    windows.append(
                        FaultWindow("drop", -1, start, end, drop_prob=float(value))
                    )
                else:
                    raise ValueError(f"unknown term {key!r}")
            except ValueError as exc:
                raise ValueError(
                    f"bad fault term {term!r} (expected e.g. fail=2@100:400, "
                    f"slow=3:2@0:500, drop=0.01@200:300 or seed=7): {exc}"
                ) from exc
        return cls(windows, seed=seed)

    def to_json(self) -> dict:
        """Serialize the schedule *including* its advancement state, so a
        schedule saved mid-run resumes mid-window after a round-trip."""
        return {
            "type": "fault_schedule",
            "seed": self.seed,
            "windows": [w.to_json() for w in self.windows],
            "runtime": self.state_dict(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FaultSchedule":
        if payload.get("type") != "fault_schedule":
            raise ValueError(f"not a fault schedule payload: {payload.get('type')!r}")
        schedule = cls(
            [FaultWindow.from_json(w) for w in payload.get("windows", [])],
            seed=int(payload.get("seed", 0)),
        )
        runtime = payload.get("runtime")
        if runtime is not None:
            schedule.load_state(runtime)
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultSchedule({len(self.windows)} windows, seed={self.seed})"


def _split_terms(spec: str) -> list[str]:
    terms = [term.strip() for term in spec.split(",") if term.strip()]
    if not terms:
        raise ValueError("empty fault spec")
    return terms


def _parse_window(window_str: str) -> tuple[int, int | None]:
    """``"100:400"`` -> (100, 400); ``"100"``/``""`` -> open-ended."""
    if not window_str:
        return 0, None
    start_str, sep, end_str = window_str.partition(":")
    start = int(start_str)
    end = int(end_str) if sep and end_str else None
    return start, end


def per_shard_schedules(
    schedule: "FaultSchedule | str | None",
    shards: int,
    seed: int | None = None,
) -> "list[FaultSchedule | None]":
    """Fan one seeded fault spec out into ``shards`` independent schedules.

    Every shard sees the *same* timed windows (the spec describes the
    environment, which all shards share) but gets its own drop-lottery
    stream, derived via :func:`repro.serve.clients.spawn_seeds` from the
    master seed — ``seed`` when given, else the spec's own ``seed=`` term.
    Attaching one schedule object to N systems would interleave their
    lottery draws nondeterministically with shard order; N derived copies
    keep each shard bit-reproducible on its own.

    ``schedule`` may be a :class:`FaultSchedule`, a spec string for
    :meth:`FaultSchedule.parse`, or ``None`` (returns all-``None``).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if schedule is None:
        return [None] * shards
    if isinstance(schedule, str):
        schedule = FaultSchedule.parse(schedule)
    # local import: repro.serve imports this module at package-init time
    from repro.serve.clients import spawn_seeds

    master = schedule.seed if seed is None else seed
    return [
        FaultSchedule(schedule.windows, seed=child)
        for child in spawn_seeds(master, shards)
    ]


def parse_faults(spec: str) -> FaultModel | FaultSchedule:
    """Parse a fault spec, picking the static or timed form.

    Specs containing a ``@`` window (or a ``seed=``/``drop=`` term) become a
    :class:`FaultSchedule`; purely static specs (``slow=3:2,failed=5``)
    become a :class:`FaultModel`.
    """
    if "@" in spec or any(
        term.startswith(("seed=", "drop=", "fail="))
        for term in _split_terms(spec)
    ):
        return FaultSchedule.parse(spec)
    return FaultModel.parse(spec)


# -- repair mappings -----------------------------------------------------------


class RemappedMapping(TreeMapping):
    """A mapping with failed modules' nodes spread over the survivors.

    Node ``v`` whose home module died moves to the ``rank(v)``-th surviving
    module, round-robin within the dead module's contents — the simplest
    online remap a controller would do, and deliberately oblivious to
    template structure (the point the fault tests make).
    """

    def __init__(self, base: TreeMapping, failed: frozenset[int]):
        if not failed:
            raise ValueError("no failed modules; use the base mapping")
        survivors = [m for m in range(base.num_modules) if m not in failed]
        if not survivors:
            raise ValueError("cannot fail every module")
        super().__init__(base.tree, base.num_modules)
        self.base = base
        self.failed = frozenset(failed)
        self._survivors = np.array(survivors, dtype=np.int64)

    def _compute_color_array(self) -> np.ndarray:
        colors = self.base.color_array().copy()
        dead_mask = np.isin(colors, list(self.failed))
        dead_nodes = np.nonzero(dead_mask)[0]
        colors[dead_nodes] = self._survivors[
            np.arange(dead_nodes.size) % self._survivors.size
        ]
        return colors

    def module_of(self, node: int) -> int:
        self._tree.check_node(node)
        return int(self.color_array()[node])


class ColorRepairMapping(TreeMapping):
    """Conflict-aware repair: recolor dead modules' nodes against COLOR.

    Where :class:`RemappedMapping` sprays a dead module's nodes round-robin,
    this repair walks them in BFS order and gives each one the surviving
    color that collides *least* with the templates that contain it.  The
    scored neighborhood of a node ``v`` follows the paper's template
    families:

    * the ancestor chain within ``path_window - 1`` steps (every ``P(N)``
      instance through ``v`` climbs this chain);
    * the height-``subtree_height`` subtrees rooted at each of ``v``'s
      ancestors within ``subtree_height - 1`` levels (the ``S(K)`` instances
      containing ``v``);
    * ``v``'s own descendants down ``subtree_height - 1`` levels (downward
      path and subtree continuations).

    Among survivor colors minimizing neighborhood collisions, ties break
    toward the currently least-loaded module, so repair also preserves
    Theorem 7-style balance.  Window sizes default to the base mapping's
    COLOR parameters (``N``, ``k``) when it has them.
    """

    def __init__(
        self,
        base: TreeMapping,
        failed: frozenset[int],
        path_window: int | None = None,
        subtree_height: int | None = None,
    ):
        if not failed:
            raise ValueError("no failed modules; use the base mapping")
        survivors = [m for m in range(base.num_modules) if m not in failed]
        if not survivors:
            raise ValueError("cannot fail every module")
        super().__init__(base.tree, base.num_modules)
        self.base = base
        self.failed = frozenset(failed)
        self._survivors = np.array(survivors, dtype=np.int64)
        levels = base.tree.num_levels
        if path_window is None:
            path_window = min(int(getattr(base, "N", levels)), levels)
        if subtree_height is None:
            subtree_height = min(int(getattr(base, "k", 3)) + 1, levels)
        self.path_window = max(1, path_window)
        self.subtree_height = max(1, subtree_height)

    def _neighborhood(self, node: int) -> np.ndarray:
        """Heap ids whose colors constrain ``node`` (excluding ``node``)."""
        num_nodes = self._tree.num_nodes
        out: list[int] = []
        # ancestor chain for P(N) instances through the node
        v = node
        for _ in range(self.path_window - 1):
            if v == 0:
                break
            v = (v + 1) // 2 - 1
            out.append(v)
        # S(K) windows: height-h subtrees rooted at each nearby ancestor
        h = self.subtree_height
        roots = [node]
        v = node
        for _ in range(h - 1):
            if v == 0:
                break
            v = (v + 1) // 2 - 1
            roots.append(v)
        for root in roots:
            first, width = root, 1
            for _ in range(h):
                last = first + width
                if first >= num_nodes:
                    break
                out.extend(range(first, min(last, num_nodes)))
                first = 2 * first + 1
                width *= 2
        neigh = np.unique(np.array(out, dtype=np.int64))
        return neigh[neigh != node]

    def _compute_color_array(self) -> np.ndarray:
        colors = self.base.color_array().copy()
        dead_nodes = np.nonzero(np.isin(colors, list(self.failed)))[0]
        survivors = self._survivors
        # survivor slot per color id, -1 for dead colors
        slot = np.full(self._num_modules, -1, dtype=np.int64)
        slot[survivors] = np.arange(survivors.size)
        loads = np.bincount(colors, minlength=self._num_modules)[survivors]
        loads = loads.astype(np.float64)
        for node in dead_nodes:  # BFS order: earlier repairs constrain later
            neigh_colors = colors[self._neighborhood(int(node))]
            neigh_slots = slot[neigh_colors]
            counts = np.bincount(
                neigh_slots[neigh_slots >= 0], minlength=survivors.size
            )
            # least collisions; break ties toward the least-loaded survivor
            score = counts.astype(np.float64) + loads / (loads.sum() + 1.0)
            choice = int(np.argmin(score))
            colors[node] = survivors[choice]
            loads[choice] += 1.0
        return colors

    def module_of(self, node: int) -> int:
        self._tree.check_node(node)
        return int(self.color_array()[node])


def repair_comparison(
    base: TreeMapping,
    failed: frozenset[int] | set[int],
    subtree_size: int | None = None,
    path_size: int | None = None,
) -> dict:
    """Quantify how much conflict-aware repair beats the oblivious remap.

    Returns worst-case ``S(subtree_size)`` / ``P(path_size)`` conflicts (the
    paper's ``C_U``) for the intact mapping, :class:`RemappedMapping` and
    :class:`ColorRepairMapping` over the same ``failed`` set.  Sizes default
    to the base mapping's COLOR guarantees (``K = 2**k - 1`` and ``N``).
    """
    from repro.analysis.conflicts import family_cost
    from repro.templates.path import PTemplate
    from repro.templates.subtree import STemplate

    failed = frozenset(failed)
    if subtree_size is None:
        k = int(getattr(base, "k", 3))
        subtree_size = (1 << k) - 1
    if path_size is None:
        path_size = min(
            int(getattr(base, "N", base.tree.num_levels)), base.tree.num_levels
        )
    families = [("S", STemplate(subtree_size)), ("P", PTemplate(path_size))]
    mappings = {
        "intact": base,
        "oblivious": RemappedMapping(base, failed),
        "repair": ColorRepairMapping(base, failed),
    }
    out: dict = {
        "failed": sorted(failed),
        "subtree_size": subtree_size,
        "path_size": path_size,
    }
    for name, mapping in mappings.items():
        costs = {fam_name: family_cost(mapping, fam) for fam_name, fam in families}
        costs["total"] = sum(costs.values())
        out[name] = costs
    return out


def apply_faults(
    mapping: TreeMapping,
    faults: FaultModel,
    interconnect: Interconnect | None = None,
    repair: str = "oblivious",
    recorder: NullRecorder | None = None,
) -> ParallelMemorySystem:
    """Build a memory system with static ``faults`` applied to ``mapping``.

    Failed modules are handled by a repair mapping — ``repair="oblivious"``
    (:class:`RemappedMapping`, the default) or ``repair="color"``
    (:class:`ColorRepairMapping`) — and slow modules get their per-service
    latency raised on the corresponding
    :class:`~repro.memory.module.MemoryModule`.  Latency overrides are
    installed as *base* latencies, so they survive
    :meth:`~repro.memory.system.ParallelMemorySystem.reset` when the system
    is reused across runs.
    """
    faults.validate_against(mapping.num_modules)
    if repair not in ("oblivious", "color"):
        raise ValueError(f"unknown repair mode {repair!r}; pick oblivious or color")
    effective: TreeMapping = mapping
    if faults.failed:
        if repair == "color":
            effective = ColorRepairMapping(mapping, faults.failed)
        else:
            effective = RemappedMapping(mapping, faults.failed)
    pms = ParallelMemorySystem(effective, interconnect=interconnect, recorder=recorder)
    if faults.failed and pms.recorder.enabled:
        moved = int(
            (effective.color_array() != mapping.color_array()).sum()
        )
        pms.recorder.event(
            "repair",
            cycle=0,
            mode=repair,
            modules=sorted(faults.failed),
            moved=moved,
        )
    for module, latency in faults.slow.items():
        pms.modules[module].set_base_latency(latency)
    return pms
