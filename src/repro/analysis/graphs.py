"""Structural diagnostics of the conflict graph.

The coloring problem of Section 1.1 is graph coloring of the *conflict
graph* (one clique per template instance, built by
:func:`repro.analysis.optimal.conflict_graph`).  :func:`conflict_graph_stats`
reports the structural quantities that explain the module counts:

* the max clique **is** the largest template instance, giving the trivial
  lower bound on modules;
* greedy coloring over the graph gives a quick upper bound to sandwich the
  exact DSATUR result of :mod:`repro.analysis.optimal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.optimal import conflict_graph, greedy_colors
from repro.templates.base import TemplateFamily
from repro.trees import CompleteBinaryTree

__all__ = ["conflict_graph_stats", "GraphStats"]


@dataclass(frozen=True)
class GraphStats:
    """Structure report of a conflict graph."""

    nodes: int
    edges: int
    max_degree: int
    clique_lower_bound: int
    greedy_upper_bound: int
    density: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"conflict graph: {self.nodes} nodes, {self.edges} edges, "
            f"chromatic in [{self.clique_lower_bound}, {self.greedy_upper_bound}]"
        )


def conflict_graph_stats(
    tree: CompleteBinaryTree,
    families: Iterable[TemplateFamily],
) -> GraphStats:
    """Structural diagnostics of the conflict graph of ``families`` on ``tree``."""
    families = list(families)
    instances = [inst for fam in families for inst in fam.instances(tree)]
    adj = conflict_graph(instances, tree.num_nodes)
    n = len(adj)
    edges = sum(len(neighbors) for neighbors in adj) // 2
    return GraphStats(
        nodes=n,
        edges=edges,
        max_degree=max((len(neighbors) for neighbors in adj), default=0),
        clique_lower_bound=max((fam.size for fam in families), default=1),
        greedy_upper_bound=greedy_colors(adj),
        density=2 * edges / (n * (n - 1)) if n > 1 else 0.0,
    )
