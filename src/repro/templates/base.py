"""Template abstractions.

A *template* (paper, Section 1.1) is a family of node subsets — the sets of
nodes an operation accesses together.  A *template instance* is one such
subset.  The library models a template as a :class:`TemplateFamily` object
that, given a tree, can enumerate / count / sample its instances, and an
instance as a :class:`TemplateInstance`: an immutable wrapper around the array
of heap ids plus a tag describing which family produced it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.trees import CompleteBinaryTree

__all__ = ["TemplateInstance", "TemplateFamily", "ELEMENTARY_KINDS"]

ELEMENTARY_KINDS = ("subtree", "level", "path")


@dataclass(frozen=True)
class TemplateInstance:
    """One occurrence of a template: a set of heap ids accessed together.

    Attributes
    ----------
    kind:
        ``"subtree"``, ``"level"``, ``"path"``, ``"tp"`` or ``"composite"``.
    nodes:
        Heap ids of the instance, as an immutable int64 array.  Order is the
        family's canonical order (BFS for subtrees, left-to-right for levels,
        bottom-up for paths); conflict counts are order-independent.
    anchor:
        The instance's defining node (subtree root, window start, path bottom);
        ``-1`` for composites.
    """

    kind: str
    nodes: np.ndarray
    anchor: int = -1
    _node_set: frozenset[int] = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        arr = np.asarray(self.nodes, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "nodes", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("instance must be a non-empty 1-D array of heap ids")
        node_set = frozenset(arr.tolist())
        if len(node_set) != arr.size:
            raise ValueError(f"instance contains duplicate nodes: {arr!r}")
        object.__setattr__(self, "_node_set", node_set)

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, node: int) -> bool:
        return int(node) in self._node_set

    def node_set(self) -> frozenset[int]:
        return self._node_set

    def disjoint_from(self, other: "TemplateInstance") -> bool:
        return self._node_set.isdisjoint(other._node_set)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemplateInstance):
            return NotImplemented
        return self.kind == other.kind and self._node_set == other._node_set

    def __hash__(self) -> int:
        return hash((self.kind, self._node_set))


class TemplateFamily(abc.ABC):
    """A family of template instances parameterized by an instance size."""

    #: one of :data:`ELEMENTARY_KINDS` or ``"tp"``
    kind: str

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of nodes in each instance of the family."""

    @abc.abstractmethod
    def admits(self, tree: CompleteBinaryTree) -> bool:
        """True when the tree holds at least one instance of the family."""

    @abc.abstractmethod
    def count(self, tree: CompleteBinaryTree) -> int:
        """Number of instances in the tree."""

    @abc.abstractmethod
    def instances(self, tree: CompleteBinaryTree) -> Iterator[TemplateInstance]:
        """Iterate every instance of the family in the tree."""

    @abc.abstractmethod
    def instance_matrix(self, tree: CompleteBinaryTree) -> np.ndarray:
        """All instances as one ``(count, size)`` int64 matrix of heap ids.

        This is the vectorized enumeration used by exhaustive conflict
        verification; row order matches :meth:`instances`.
        """

    def sample(
        self, tree: CompleteBinaryTree, rng: np.random.Generator
    ) -> TemplateInstance:
        """Draw one instance uniformly at random."""
        n = self.count(tree)
        if n == 0:
            raise ValueError(f"{self!r} has no instances in {tree!r}")
        return self.instance_at(tree, int(rng.integers(n)))

    @abc.abstractmethod
    def instance_at(self, tree: CompleteBinaryTree, index: int) -> TemplateInstance:
        """The ``index``-th instance in enumeration order."""

    def _check_index(self, tree: CompleteBinaryTree, index: int) -> None:
        n = self.count(tree)
        if not 0 <= index < n:
            raise IndexError(f"instance index {index} out of range (count={n})")
