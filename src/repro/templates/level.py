"""The L-template: runs of ``K`` consecutive nodes within a level (paper: ``L(K)``).

An instance ``L_K(i, j)`` is the nodes ``v(i, j) .. v(i+K-1, j)``; it exists
for every level ``j`` with at least ``K`` nodes (``2**j >= K``) and every
start ``0 <= i <= 2**j - K``.  Node order is left-to-right.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.templates.base import TemplateFamily, TemplateInstance
from repro.trees import CompleteBinaryTree

__all__ = ["LTemplate"]


class LTemplate(TemplateFamily):
    """Family of all runs of ``K`` consecutive same-level nodes."""

    kind = "level"

    def __init__(self, K: int):
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        self._K = K
        # tree height -> ((level, windows_at_level), ...) and their total
        self._levels: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}

    @property
    def size(self) -> int:
        return self._K

    def _min_level(self) -> int:
        # smallest j with 2**j >= K
        return (self._K - 1).bit_length()

    def admits(self, tree: CompleteBinaryTree) -> bool:
        return self._min_level() <= tree.last_level

    def _level_counts(self, tree: CompleteBinaryTree) -> tuple[tuple[int, int], ...]:
        """Pairs ``(level, windows_at_level)`` for levels that admit instances."""
        return self._levels_of(tree)[0]

    def _levels_of(self, tree: CompleteBinaryTree):
        """:meth:`_level_counts` and their total, built once per tree height."""
        entry = self._levels.get(tree.num_levels)
        if entry is None:
            pairs = tuple(
                (j, (1 << j) - self._K + 1)
                for j in range(self._min_level(), tree.num_levels)
            )
            entry = self._levels[tree.num_levels] = (pairs, sum(c for _, c in pairs))
        return entry

    def count(self, tree: CompleteBinaryTree) -> int:
        return self._levels_of(tree)[1]

    def instance_at(self, tree: CompleteBinaryTree, index: int) -> TemplateInstance:
        self._check_index(tree, index)
        for j, c in self._level_counts(tree):
            if index < c:
                start = (1 << j) - 1 + index
                return TemplateInstance(
                    kind=self.kind,
                    nodes=np.arange(start, start + self._K, dtype=np.int64),
                    anchor=start,
                )
            index -= c
        raise AssertionError("unreachable")  # pragma: no cover

    def instances(self, tree: CompleteBinaryTree) -> Iterator[TemplateInstance]:
        for j, c in self._level_counts(tree):
            base = (1 << j) - 1
            for i in range(c):
                yield TemplateInstance(
                    kind=self.kind,
                    nodes=np.arange(base + i, base + i + self._K, dtype=np.int64),
                    anchor=base + i,
                )

    def instance_matrix(self, tree: CompleteBinaryTree) -> np.ndarray:
        starts = []
        for j, c in self._level_counts(tree):
            base = (1 << j) - 1
            starts.append(np.arange(base, base + c, dtype=np.int64))
        if not starts:
            return np.empty((0, self._K), dtype=np.int64)
        start_arr = np.concatenate(starts)
        return start_arr[:, None] + np.arange(self._K, dtype=np.int64)[None, :]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LTemplate(K={self._K})"
