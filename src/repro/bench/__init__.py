"""Experiment harness: the paper's results regenerated as measured tables.

* :mod:`repro.bench.experiments` — registry E1..E22 (one per theorem/lemma);
* :mod:`repro.bench.workloads` — application workload builders;
* :mod:`repro.bench.report` — result records and table rendering;
* :mod:`repro.bench.cli` — ``python -m repro.bench run all``.
"""

from repro.bench.ascii_chart import render_chart
from repro.bench.experiments import EXPERIMENTS, run_all, run_experiment
from repro.bench.figures import render_figures
from repro.bench.report import ExperimentResult, render_markdown, render_table
from repro.bench.sweep import Series, conflict_series
from repro.bench.workloads import heap_workload, mixed_workload, range_query_workload

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "Series",
    "conflict_series",
    "heap_workload",
    "mixed_workload",
    "range_query_workload",
    "render_chart",
    "render_figures",
    "render_markdown",
    "render_table",
    "run_all",
    "run_experiment",
]
