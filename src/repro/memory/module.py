"""A single memory module: FIFO request queue served by one or more ports."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.events import NULL_RECORDER, NullRecorder

__all__ = ["MemoryModule"]


@dataclass
class MemoryModule:
    """One memory bank of the parallel memory system.

    Requests are (tag, address) pairs.  The module has ``ports`` independent
    servers (default 1 — the paper's model); each accepted request occupies
    one server for ``latency`` cycles.  A dual-ported bank (``ports=2``)
    halves serialized rounds, which is the hardware-side alternative to a
    better mapping that the multiport tests quantify.

    Fault state: ``failed`` makes :meth:`step` refuse all service (queued
    requests wait for recovery or an upstream retry), and ``base_latency``
    remembers the module's *steady-state* service latency so transient
    slowdown windows — and :meth:`~ParallelMemorySystem.reset` — can restore
    it.  Static overrides installed by :func:`~repro.memory.faults.apply_faults`
    go through :meth:`set_base_latency` and therefore survive resets.
    """

    module_id: int
    latency: int = 1
    ports: int = 1
    queue: deque = field(default_factory=deque)
    served: int = 0
    busy_cycles: int = 0
    max_queue_depth: int = 0
    failed: bool = False
    recorder: NullRecorder = field(default=NULL_RECORDER, repr=False)
    base_latency: int = field(default=0, repr=False)  # 0 -> copy from latency
    _port_free: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError(f"latency must be >= 1, got {self.latency}")
        if self.ports < 1:
            raise ValueError(f"ports must be >= 1, got {self.ports}")
        if self.base_latency == 0:
            self.base_latency = self.latency
        self._port_free = [0] * self.ports

    def set_base_latency(self, latency: int) -> None:
        """Install a *permanent* per-service latency (fault override).

        Unlike assigning ``latency`` directly, the override also becomes the
        module's steady-state latency, so slowdown-window recovery and
        system resets restore to it instead of the construction default.
        """
        if latency < 1:
            raise ValueError(f"latency must be >= 1, got {latency}")
        self.latency = latency
        self.base_latency = latency

    def restore_latency(self) -> None:
        """End a transient slowdown: return to the steady-state latency."""
        self.latency = self.base_latency

    def enqueue(self, tag: int, address: int) -> None:
        self.queue.append((tag, address))
        self.max_queue_depth = max(self.max_queue_depth, len(self.queue))

    def step(self, now: int) -> tuple[int, int] | None:
        """Serve one request this cycle if a port is free; may be called up
        to ``ports`` times per cycle by the scheduler.  A failed module
        serves nothing until it recovers."""
        if self.failed or not self.queue:
            return None
        for p, free_at in enumerate(self._port_free):
            if now >= free_at:
                request = self.queue.popleft()
                self._port_free[p] = now + self.latency
                self.served += 1
                self.busy_cycles += self.latency
                if self.recorder.enabled:
                    self.recorder.event(
                        "issue",
                        cycle=now,
                        module=self.module_id,
                        tag=request[0],
                        address=request[1],
                        latency=self.latency,
                        port=p,
                    )
                return request
        if self.recorder.enabled:
            self.recorder.event(
                "stall",
                cycle=now,
                module=self.module_id,
                where="module",
                waiting=len(self.queue),
            )
        return None

    @property
    def idle(self) -> bool:
        return not self.queue

    def reset_clock(self) -> None:
        """Forget port timestamps so a new drain can start at cycle 0.

        Drains keep their own cycle counters, so a run that begins counting
        from 0 must clear the ``free_at`` marks left by the previous drain
        or its ports appear busy far into the future.
        """
        self._port_free = [0] * self.ports

    def reset_queue(self) -> None:
        """Drop pending requests (used between independent accesses)."""
        self.queue.clear()
        self.reset_clock()

    def reset_stats(self) -> None:
        self.served = 0
        self.busy_cycles = 0
        self.max_queue_depth = 0
        self.reset_queue()
