"""Access traces: labeled sequences of parallel node accesses.

A trace is the interface between the applications (:mod:`repro.apps`) and
the simulator: apps *record* which node sets they touch, the simulator
*replays* them under any mapping, making mapping comparisons
workload-faithful.
Traces serialize to ``.npz`` (flat node array + offsets + labels), so a
workload recorded once can be replayed across machines and mappings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.templates.base import TemplateInstance

__all__ = ["AccessTrace"]


class AccessTrace:
    """An ordered list of ``(label, nodes)`` parallel accesses."""

    def __init__(self, accesses: Iterable[tuple[str, np.ndarray]] = ()):
        self._accesses: list[tuple[str, np.ndarray]] = []
        for label, nodes in accesses:
            self.add(nodes, label=label)

    def add(self, nodes: np.ndarray, label: str = "") -> None:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("each access must be a non-empty 1-D node array")
        if nodes.min() < 0:
            raise ValueError(f"node ids must be >= 0, got {int(nodes.min())}")
        self._accesses.append((label, nodes))

    def add_instance(self, instance: TemplateInstance, label: str | None = None) -> None:
        self.add(instance.nodes, label=label if label is not None else instance.kind)

    def extend(self, other: "AccessTrace") -> None:
        self._accesses.extend(other._accesses)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._accesses)

    def __len__(self) -> int:
        return len(self._accesses)

    @property
    def total_items(self) -> int:
        return sum(nodes.size for _, nodes in self._accesses)

    def labels(self) -> list[str]:
        return sorted({label for label, _ in self._accesses})

    # -- serialization --------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the trace to ``path`` as a compressed ``.npz``.

        Empty traces round-trip (an app may legitimately record nothing);
        labels may be any unicode strings.
        """
        path = Path(path)
        if self._accesses:
            flat = np.concatenate([nodes for _, nodes in self._accesses])
        else:
            flat = np.zeros(0, dtype=np.int64)
        sizes = np.array([nodes.size for _, nodes in self._accesses], dtype=np.int64)
        labels = json.dumps([label for label, _ in self._accesses])
        np.savez_compressed(
            path,
            nodes=flat,
            sizes=sizes,
            labels=np.frombuffer(labels.encode(), dtype=np.uint8),
        )
        return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")

    @classmethod
    def load(cls, path: str | Path) -> "AccessTrace":
        """Restore a trace written by :meth:`save`."""
        with np.load(Path(path)) as payload:
            try:
                flat = payload["nodes"]
                sizes = payload["sizes"]
                labels = json.loads(bytes(payload["labels"]).decode())
            except KeyError as exc:
                raise ValueError(f"{path} is not a saved trace: missing {exc}") from exc
        if len(labels) != sizes.size or sizes.sum() != flat.size:
            raise ValueError(f"{path} is corrupt: inconsistent sizes")
        trace = cls()
        offset = 0
        for label, size in zip(labels, sizes):
            trace.add(flat[offset : offset + int(size)], label=label)
            offset += int(size)
        return trace

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessTrace(accesses={len(self)}, items={self.total_items})"
