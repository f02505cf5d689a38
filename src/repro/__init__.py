"""pmtree — conflict-free tree access in parallel memory systems.

Reproduction of Auletta, Das, De Vivo, Pinotti, Scarano, *Optimal Tree Access
by Elementary and Composite Templates in Parallel Memory Systems* (IPDPS 2001
/ IEEE TPDS).

The public facade re-exports the objects most users need:

>>> from repro import CompleteBinaryTree, ColorMapping, PTemplate, family_cost
>>> tree = CompleteBinaryTree(12)
>>> mapping = ColorMapping(tree, N=6, k=2)
>>> family_cost(mapping, PTemplate(6))
0

Subpackages: :mod:`repro.trees` (tree substrate), :mod:`repro.templates`
(S/L/P/C templates), :mod:`repro.core` (the paper's mappings),
:mod:`repro.memory` (memory-system simulator), :mod:`repro.analysis`
(conflict analysis and bounds), :mod:`repro.apps` (motivating applications),
:mod:`repro.bench` (experiment harness E1..E22), :mod:`repro.obs`
(cycle-level telemetry, reports, regression gating), :mod:`repro.serve`
(online request serving with conflict-aware composite batching).
"""

from repro.analysis import family_cost, instance_conflicts, load_report, mapping_cost
from repro.core import (
    BasicColorMapping,
    ColorMapping,
    LabelTreeMapping,
    TreeMapping,
)
from repro.memory import AccessTrace, ParallelMemorySystem
from repro.obs import EventRecorder
from repro.serve import ServeEngine
from repro.templates import (
    CompositeSampler,
    LTemplate,
    PTemplate,
    STemplate,
    TemplateInstance,
    make_composite,
)
from repro.trees import CompleteBinaryTree

__version__ = "1.0.0"

__all__ = [
    "AccessTrace",
    "BasicColorMapping",
    "ColorMapping",
    "CompleteBinaryTree",
    "CompositeSampler",
    "EventRecorder",
    "LTemplate",
    "LabelTreeMapping",
    "PTemplate",
    "ParallelMemorySystem",
    "STemplate",
    "ServeEngine",
    "TemplateInstance",
    "TreeMapping",
    "__version__",
    "family_cost",
    "instance_conflicts",
    "load_report",
    "make_composite",
    "mapping_cost",
]
