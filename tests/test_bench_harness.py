"""Unit tests for the bench harness internals (report, sweep, charts, workloads)."""

import numpy as np
import pytest

from repro.bench import (
    EXPERIMENTS,
    ExperimentResult,
    Series,
    conflict_series,
    heap_workload,
    mixed_workload,
    range_query_workload,
    render_chart,
    render_figures,
    render_markdown,
    render_table,
)
from repro.bench.ablations import ABLATIONS
from repro.core import ColorMapping, ModuloMapping
from repro.trees import CompleteBinaryTree


class TestReport:
    def _result(self):
        r = ExperimentResult(
            exp_id="T1", title="test", claim="c", columns=["a", "b"]
        )
        r.add_row(1, 2.5)
        r.add_row("x", 3)
        return r

    def test_add_row_validates_width(self):
        r = self._result()
        with pytest.raises(ValueError):
            r.add_row(1)

    def test_require_flips_holds(self):
        r = self._result()
        assert r.holds
        r.require(True)
        assert r.holds
        r.require(False)
        assert not r.holds
        r.require(True)
        assert not r.holds  # sticky

    def test_render_table_alignment(self):
        txt = render_table(["col", "x"], [(1, 22), (333, 4)])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_markdown_structure(self):
        md = render_markdown(self._result())
        assert md.startswith("### T1")
        assert "| a | b |" in md
        assert "2.500" in md  # float formatting
        assert "yes" in md

    def test_str_contains_status(self):
        r = self._result()
        r.require(False)
        assert "NO" in str(r)

    def test_render_csv(self):
        from repro.bench.report import render_csv

        csv_text = render_csv(self._result())
        lines = csv_text.strip().splitlines()
        assert lines[0] == "experiment,a,b"
        assert lines[1] == "T1,1,2.500"
        assert len(lines) == 3


class TestRegistry:
    def test_ids_are_unique_and_well_formed(self):
        ids = list(EXPERIMENTS) + list(ABLATIONS)
        assert len(set(ids)) == len(ids)
        for exp_id in ids:
            assert exp_id[0] in "EAX"
            assert exp_id[1:].isdigit()

    def test_every_registered_fn_returns_result(self):
        # spot-check two cheap ones at quick scale
        for exp_id in ("E3", "A1"):
            from repro.bench.experiments import run_experiment

            result = run_experiment(exp_id, "quick")
            assert isinstance(result, ExperimentResult)
            assert result.exp_id == exp_id
            assert result.rows

    def test_unknown_id_is_one_line_and_exit_2(self, tmp_path, capsys):
        from repro.bench.cli import main

        telemetry = tmp_path / "run.jsonl"
        assert main(["run", "E99", "--obs", str(telemetry)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "'E99'" in err
        assert "E22" in err and "A6" in err and "X4" in err
        assert not telemetry.exists()  # checked before any recorder is set up


class TestSweepAndCharts:
    def _mappings(self):
        tree = CompleteBinaryTree(11)
        return [
            ("a", ColorMapping.max_parallelism(tree, 3)),
            ("b", ModuloMapping(tree, 7)),
        ]

    def test_series_validation(self):
        with pytest.raises(ValueError):
            Series(label="x", xs=(1.0,), ys=(1.0, 2.0))
        with pytest.raises(ValueError):
            Series(label="x", xs=(), ys=())

    def test_conflict_series_shapes(self):
        series = conflict_series(self._mappings(), "level", [7, 14, 28])
        assert len(series) == 2
        for s in series:
            assert len(s.xs) == 3
            assert all(y >= 0 for y in s.ys)

    def test_reference_series_appended(self):
        series = conflict_series(
            self._mappings(), "level", [7, 14], reference=lambda D: D / 7
        )
        assert series[-1].label == "bound"
        assert series[-1].ys == (1.0, 2.0)

    def test_subtree_sizes_round_up(self):
        series = conflict_series(self._mappings(), "subtree", [10])
        assert series[0].xs == (15.0,)  # next 2**d - 1

    def test_render_chart_contains_markers_and_legend(self):
        series = conflict_series(self._mappings(), "level", [7, 14, 28])
        chart = render_chart(series, title="t")
        assert "t" in chart.splitlines()[0]
        assert "o = a" in chart and "x = b" in chart
        assert "|" in chart

    def test_render_chart_validation(self):
        with pytest.raises(ValueError):
            render_chart([])
        series = conflict_series(self._mappings(), "level", [7])
        with pytest.raises(ValueError):
            render_chart(series, width=3)

    def test_render_figures_markdown(self):
        md = render_figures("quick")
        assert md.startswith("## Figures")
        assert md.count("```") % 2 == 0
        assert "F1" in md and "F3" in md


class TestWorkloads:
    def test_heap_workload_reproducible(self):
        tree = CompleteBinaryTree(9)
        a = heap_workload(tree, ops=80, seed=4)
        b = heap_workload(tree, ops=80, seed=4)
        assert len(a) == len(b)
        for (la, na), (lb, nb) in zip(a, b):
            assert la == lb and np.array_equal(na, nb)

    def test_range_query_workload_size(self):
        tree = CompleteBinaryTree(9)
        trace = range_query_workload(tree, queries=12)
        assert len(trace) == 12
        assert set(trace.labels()) == {"range-query"}

    def test_mixed_workload_labels(self):
        tree = CompleteBinaryTree(9)
        labels = set(mixed_workload(tree).labels())
        assert {"level-sweep", "range-query"} <= labels
        assert any(label.startswith("heap") for label in labels)
