"""The S-template: complete subtrees of size ``K = 2**k - 1`` (paper: ``S(K)``).

``S(K)`` is the family of all complete subtrees of size ``K``; an instance is
rooted at any node lying at level ``<= H - k`` (so the subtree fits in the
tree).  Instance node order is BFS from the root: BFS rank ``2**r - 1 + s``
of the subtree rooted at ``root`` is heap id ``((root + 1) << r) - 1 + s``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from repro.templates.base import TemplateFamily, TemplateInstance
from repro.trees import CompleteBinaryTree, subtree_num_levels

__all__ = ["STemplate", "bfs_rank_levels_offsets"]


def bfs_rank_levels_offsets(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-BFS-rank (relative level, offset) arrays for a subtree of ``size`` nodes.

    Rank ``t`` of a complete subtree lies at relative level ``r`` with offset
    ``s`` where ``t = 2**r - 1 + s``.  Used to build instance matrices by
    broadcasting.
    """
    ranks = np.arange(size, dtype=np.int64)
    r = np.floor(np.log2(ranks + 1)).astype(np.int64)
    # guard float rounding at powers of two
    r = np.where((np.int64(1) << r) > ranks + 1, r - 1, r)
    r = np.where((np.int64(1) << (r + 1)) <= ranks + 1, r + 1, r)
    s = ranks + 1 - (np.int64(1) << r)
    return r, s


class STemplate(TemplateFamily):
    """Family of all complete subtrees with ``K = 2**k - 1`` nodes."""

    kind = "subtree"

    def __init__(self, K: int):
        self._k = subtree_num_levels(K)  # validates K = 2**k - 1
        self._K = K

    @property
    def size(self) -> int:
        return self._K

    @property
    def levels(self) -> int:
        """Number of levels ``k`` of each subtree instance."""
        return self._k

    @cached_property
    def _rank_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`bfs_rank_levels_offsets` of ``K``, built on first use (a
        family too large for any tree never allocates them): one instance
        is one broadcast of its root over these, as in instance_matrix."""
        return bfs_rank_levels_offsets(self._K)

    def _max_root_level(self, tree: CompleteBinaryTree) -> int:
        return tree.num_levels - self._k

    def admits(self, tree: CompleteBinaryTree) -> bool:
        return self._max_root_level(tree) >= 0

    def count(self, tree: CompleteBinaryTree) -> int:
        top = self._max_root_level(tree)
        if top < 0:
            return 0
        # all nodes at levels 0 .. top can be roots
        return (1 << (top + 1)) - 1

    def roots(self, tree: CompleteBinaryTree) -> np.ndarray:
        """Heap ids of all valid subtree roots, in heap-id order."""
        return np.arange(self.count(tree), dtype=np.int64)

    def instance_at(self, tree: CompleteBinaryTree, index: int) -> TemplateInstance:
        self._check_index(tree, index)
        r, s = self._rank_offsets
        return TemplateInstance(
            kind=self.kind, nodes=((index + 1) << r) - 1 + s, anchor=index
        )

    def instances(self, tree: CompleteBinaryTree) -> Iterator[TemplateInstance]:
        for root in range(self.count(tree)):
            yield self.instance_at(tree, root)

    def instance_matrix(self, tree: CompleteBinaryTree) -> np.ndarray:
        roots = self.roots(tree)
        r, s = self._rank_offsets
        return ((roots[:, None] + 1) << r[None, :]) - 1 + s[None, :]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"STemplate(K={self._K})"
