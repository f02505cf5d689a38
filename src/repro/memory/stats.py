"""Result records produced by the parallel memory system simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AccessResult", "TraceStats", "latency_summary"]


def latency_summary(latencies) -> dict[str, float]:
    """Mean / median / p95 / p99 / max of per-request completion cycles.

    Produced by :class:`~repro.memory.system.ParallelMemorySystem` when
    constructed with ``record_latencies=True``; on a drained pipelined
    replay this is the request sojourn-time distribution.  Accepts any
    sequence of numbers — plain integer lists from ad-hoc instrumentation
    work as well as the simulator's ``int64`` arrays.
    """
    latencies = np.asarray(latencies, dtype=np.float64)
    if latencies.ndim != 1:
        latencies = latencies.reshape(-1)
    if latencies.size == 0:
        raise ValueError("no latencies recorded")
    return {
        "mean": float(latencies.mean()),
        "p50": float(np.percentile(latencies, 50)),
        "p95": float(np.percentile(latencies, 95)),
        "p99": float(np.percentile(latencies, 99)),
        "max": float(latencies.max()),
    }


@dataclass(slots=True)
class AccessResult:
    """Outcome of one parallel access (one template instance).

    Attributes
    ----------
    cycles:
        Memory cycles until every item of the access was served.
    conflicts:
        Extra serialized rounds caused by module collisions — the paper's
        conflict count (``max module multiplicity - 1`` on a crossbar).
    module_counts:
        Requests per module for this access (length ``M``).
    size:
        Number of items requested.
    label:
        Optional tag (e.g. ``"heap-insert"``) carried from the trace.
    """

    cycles: int
    conflicts: int
    module_counts: np.ndarray
    size: int
    label: str = ""

    @property
    def parallelism(self) -> float:
        """Items served per cycle — ``size/cycles``; ``M``-way hardware caps it at M."""
        return self.size / self.cycles if self.cycles else 0.0


@dataclass
class TraceStats:
    """Aggregate outcome of replaying an access trace."""

    num_accesses: int = 0
    total_items: int = 0
    total_cycles: int = 0
    total_conflicts: int = 0
    max_conflicts: int = 0
    module_totals: np.ndarray | None = None
    per_label_cycles: dict[str, int] = field(default_factory=dict)
    per_label_accesses: dict[str, int] = field(default_factory=dict)

    def record(self, result: AccessResult) -> None:
        self.num_accesses += 1
        self.total_items += result.size
        self.total_cycles += result.cycles
        self.total_conflicts += result.conflicts
        self.max_conflicts = max(self.max_conflicts, result.conflicts)
        if self.module_totals is None:
            self.module_totals = result.module_counts.astype(np.int64).copy()
        else:
            self.module_totals += result.module_counts
        if result.label:
            self.per_label_cycles[result.label] = (
                self.per_label_cycles.get(result.label, 0) + result.cycles
            )
            self.per_label_accesses[result.label] = (
                self.per_label_accesses.get(result.label, 0) + 1
            )

    @property
    def mean_conflicts(self) -> float:
        return self.total_conflicts / self.num_accesses if self.num_accesses else 0.0

    @property
    def mean_parallelism(self) -> float:
        """Average items served per cycle over the whole trace."""
        return self.total_items / self.total_cycles if self.total_cycles else 0.0

    @property
    def module_utilization(self) -> float:
        """Busy-slot fraction: served items over ``cycles * M``."""
        if self.module_totals is None or self.total_cycles == 0:
            return 0.0
        return self.total_items / (self.total_cycles * self.module_totals.size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceStats(accesses={self.num_accesses}, items={self.total_items}, "
            f"cycles={self.total_cycles}, conflicts total={self.total_conflicts} "
            f"max={self.max_conflicts}, parallelism={self.mean_parallelism:.2f})"
        )
