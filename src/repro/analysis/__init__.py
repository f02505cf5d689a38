"""Conflict analysis: cost functions, bounds, load metrics, exact colorability.

* :mod:`repro.analysis.conflicts` — the paper's Section 2 cost definitions,
  vectorized for exhaustive verification;
* :mod:`repro.analysis.bounds` — the theorems' claimed ceilings as formulas;
* :mod:`repro.analysis.load` — module-load balance metrics (Theorem 7);
* :mod:`repro.analysis.optimal` — exact CF-colorability (Theorem 2);
* :mod:`repro.analysis.verification` — measured-vs-claimed report objects.
"""

from repro.analysis import bounds, theory
from repro.analysis.adversary import (
    greedy_adversarial_composite,
    local_search_composite,
)
from repro.analysis.conflicts import (
    family_cost,
    family_cost_distribution,
    instance_conflicts,
    mapping_cost,
    matrix_conflicts,
    sampled_family_cost,
)
from repro.analysis.load import LoadReport, load_report
from repro.analysis.graphs import GraphStats, conflict_graph_stats
from repro.analysis.spectrum import ConflictSpectrum, conflict_spectrum
from repro.analysis.optimal import (
    cf_modules_required,
    chromatic_number,
    conflict_graph,
    greedy_colors,
    is_colorable,
)
from repro.analysis.verification import (
    BoundCheck,
    check_conflict_free,
    check_family_bound,
    conflict_histogram,
    worst_instances,
)
from repro.analysis.viz import render_coloring, render_module_histogram

__all__ = [
    "BoundCheck",
    "ConflictSpectrum",
    "GraphStats",
    "conflict_graph_stats",
    "conflict_spectrum",
    "LoadReport",
    "bounds",
    "cf_modules_required",
    "check_conflict_free",
    "check_family_bound",
    "chromatic_number",
    "conflict_graph",
    "conflict_histogram",
    "family_cost",
    "family_cost_distribution",
    "greedy_adversarial_composite",
    "greedy_colors",
    "local_search_composite",
    "render_coloring",
    "render_module_histogram",
    "instance_conflicts",
    "is_colorable",
    "load_report",
    "mapping_cost",
    "matrix_conflicts",
    "sampled_family_cost",
    "theory",
    "worst_instances",
]
