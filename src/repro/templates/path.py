"""The P-template: ascending paths of ``N`` nodes (paper: ``P(N)``).

An instance ``P_N(i, j)`` is the path from ``v(i, j)`` up to its
``(N-1)``-st ancestor; it exists for every node at level ``j >= N - 1``.
Node order is bottom-up (the paper's "leaf-to-root" direction, though the
bottom endpoint need not be a leaf): the ``d``-th node above ``bottom`` is
heap id ``((bottom + 1) >> d) - 1``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from repro.templates.base import TemplateFamily, TemplateInstance
from repro.trees import CompleteBinaryTree

__all__ = ["PTemplate"]


class PTemplate(TemplateFamily):
    """Family of all ascending paths with ``N`` nodes."""

    kind = "path"

    def __init__(self, N: int):
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        self._N = N

    @property
    def size(self) -> int:
        return self._N

    @cached_property
    def _shifts(self) -> np.ndarray:
        """Ancestor distances ``0 .. N-1``, built on first use (a family too
        long for any tree never allocates them)."""
        return np.arange(self._N, dtype=np.int64)

    def admits(self, tree: CompleteBinaryTree) -> bool:
        return tree.num_levels >= self._N

    def _first_bottom(self) -> int:
        """Heap id of the first node that can anchor a path (level ``N-1``)."""
        return (1 << (self._N - 1)) - 1

    def count(self, tree: CompleteBinaryTree) -> int:
        if not self.admits(tree):
            return 0
        # every node at levels N-1 .. H-1 anchors exactly one instance
        return tree.num_nodes - self._first_bottom()

    def bottoms(self, tree: CompleteBinaryTree) -> np.ndarray:
        """Heap ids of all path bottom endpoints, in heap-id order."""
        return np.arange(self._first_bottom(), tree.num_nodes, dtype=np.int64)

    def instance_at(self, tree: CompleteBinaryTree, index: int) -> TemplateInstance:
        self._check_index(tree, index)
        bottom = self._first_bottom() + index
        return TemplateInstance(
            kind=self.kind,
            nodes=((bottom + 1) >> self._shifts) - 1,
            anchor=bottom,
        )

    def instances(self, tree: CompleteBinaryTree) -> Iterator[TemplateInstance]:
        for index in range(self.count(tree)):
            yield self.instance_at(tree, index)

    def instance_matrix(self, tree: CompleteBinaryTree) -> np.ndarray:
        bottoms = self.bottoms(tree)
        return ((bottoms[:, None] + 1) >> self._shifts[None, :]) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PTemplate(N={self._N})"
