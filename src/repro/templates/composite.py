"""The C-template: composites of disjoint elementary instances (paper: ``C(D, c)``).

``C(D, c)`` is the family of node sets of size ``D`` that can be partitioned
into ``c`` pairwise-disjoint instances of elementary templates (subtrees,
level runs, ascending paths).  The family is combinatorially huge, so rather
than enumerating it the library offers:

* :func:`make_composite` — build/validate a composite from explicit components;
* :class:`CompositeSampler` — draw random composites with a requested
  component count and approximate total size (the exact size achieved is
  reported by the instance; bounds are evaluated against it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.templates.base import TemplateFamily, TemplateInstance
from repro.templates.level import LTemplate
from repro.templates.path import PTemplate
from repro.templates.subtree import STemplate
from repro.trees import CompleteBinaryTree

__all__ = ["CompositeInstance", "CompositeSampler", "elementary_family", "make_composite"]


@dataclass(frozen=True, eq=False)
class CompositeInstance(TemplateInstance):
    """A C-template instance: the union of ``c`` disjoint elementary instances."""

    components: tuple[TemplateInstance, ...] = ()

    @property
    def num_components(self) -> int:
        return len(self.components)

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(comp.size for comp in self.components)


def make_composite(components: list[TemplateInstance]) -> CompositeInstance:
    """Assemble a composite from explicit elementary components.

    Validates that components are non-empty, elementary, and pairwise
    disjoint (the paper requires a *partition* into disjoint instances).
    """
    if not components:
        raise ValueError("a composite needs at least one component")
    seen: set[int] = set()
    for comp in components:
        if comp.kind == "composite":
            raise ValueError("composites cannot nest")
        comp_set = comp.node_set()
        if seen & comp_set:
            raise ValueError("components overlap; C-template components must be disjoint")
        seen |= comp_set
    nodes = np.concatenate([comp.nodes for comp in components])
    return CompositeInstance(
        kind="composite", nodes=nodes, anchor=-1, components=tuple(components)
    )


class CompositeSampler:
    """Random generator of ``C(D, c)`` instances on a fixed tree.

    Components are drawn one at a time with per-component size budgets that
    steer the total toward ``target_size``; each draw is rejection-sampled
    until disjoint from the nodes already used.  Subtree components round
    their budget down to the nearest ``2**x - 1``; paths and level runs use it
    directly (clamped by tree geometry).
    """

    def __init__(
        self,
        tree: CompleteBinaryTree,
        kinds: tuple[str, ...] = ("subtree", "level", "path"),
        max_tries: int = 2000,
    ):
        unknown = set(kinds) - {"subtree", "level", "path"}
        if unknown:
            raise ValueError(f"unknown component kinds: {sorted(unknown)}")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        self.tree = tree
        self.kinds = kinds
        self.max_tries = max_tries
        # one family per (kind, size): sizes are clamped to the tree, so this
        # stays small, and a draw never rebuilds a family's tables
        self._families: dict[tuple[str, int], TemplateFamily] = {}

    def sample(
        self,
        c: int,
        target_size: int,
        rng: np.random.Generator,
        max_tries: int | None = None,
    ) -> CompositeInstance:
        """Draw a composite with exactly ``c`` components, ~``target_size`` nodes.

        ``max_tries`` overrides the sampler-wide rejection budget for this
        call only (useful when one densely packed draw needs more attempts
        than the default).
        """
        if c < 1:
            raise ValueError(f"component count must be >= 1, got {c}")
        if target_size < c:
            raise ValueError(f"target size {target_size} < component count {c}")
        if target_size > self.tree.num_nodes // 2:
            raise ValueError(
                f"target size {target_size} too large for disjoint sampling on "
                f"{self.tree.num_nodes}-node tree"
            )
        used: set[int] = set()
        components: list[TemplateInstance] = []
        for t in range(c):
            budget = max(1, (target_size - len(used)) // (c - t))
            comp = self._draw_component(budget, used, rng, max_tries=max_tries)
            components.append(comp)
            used |= comp.node_set()
        return make_composite(components)

    def _component_size(self, kind: str, budget: int) -> int:
        if kind == "subtree":
            # largest 2**x - 1 <= budget, clamped to the tree
            x = min((budget + 1).bit_length() - 1, self.tree.num_levels)
            return (1 << max(x, 1)) - 1
        if kind == "path":
            return max(1, min(budget, self.tree.num_levels))
        # level run
        return max(1, min(budget, self.tree.num_leaves))

    def _draw_component(
        self,
        budget: int,
        used: set[int],
        rng: np.random.Generator,
        max_tries: int | None = None,
    ) -> TemplateInstance:
        tries = self.max_tries if max_tries is None else max_tries
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        attempted: list[str] = []  # "kind(size)" per family tried, in order
        skipped: list[str] = []
        for kind in kinds:
            size = self._component_size(kind, budget)
            family = self._families.get((kind, size))
            if family is None:
                family = self._families[kind, size] = elementary_family(kind, size)
            if not family.admits(self.tree):
                skipped.append(f"{kind}({size}): no instances in tree")
                continue
            attempted.append(f"{kind}({size})")
            for _ in range(tries):
                inst = family.sample(self.tree, rng)
                if used.isdisjoint(inst.node_set()):
                    return inst
        detail = ", ".join(attempted) if attempted else "none admissible"
        if skipped:
            detail += "; skipped " + ", ".join(skipped)
        raise RuntimeError(
            f"could not place a disjoint component after {tries} tries per kind "
            f"(budget={budget}, used={len(used)} of {self.tree.num_nodes} nodes; "
            f"attempted {detail})"
        )


def elementary_family(kind: str, size: int) -> TemplateFamily:
    """Factory: build an elementary family by kind name (``subtree``/``level``/``path``)."""
    if kind == "subtree":
        return STemplate(size)
    if kind == "level":
        return LTemplate(size)
    if kind == "path":
        return PTemplate(size)
    raise ValueError(f"unknown elementary template kind {kind!r}")
