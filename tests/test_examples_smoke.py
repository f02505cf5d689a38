"""Smoke tests: the fast examples must run end-to-end without error.

The slower examples (dijkstra_sssp, heap_workload, mapping_tradeoffs) are
exercised by the experiment harness with the same code paths; here we run
the quick ones outright so a broken example cannot ship.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = spec.loader is not None and module or module
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "0 conflicts" in out
    assert "stored in module" in out


#: the example's stdout, pinned while ``conflict_graph_stats`` still ran on
#: networkx, so rebuilding it on :mod:`repro.analysis.optimal` is checked
LOWER_BOUND_STDOUT = """\
exact chromatic number of the S(K)+P(N) conflict graph:

N  k  K  conflict edges  clique bound  chromatic (exact)  N+K-k (Thm 2)
-  -  -  --------------  ------------  -----------------  -------------
3  1  1              10             3                  3              3
3  2  3              13             3                  4              4
4  2  3              41             4                  5              5
5  2  3             113             5                  6              6
4  3  7              65             7                  8              8

proof witness: every TP_K(i, N-k) instance has exactly {6} = {N + K - k} nodes,
and any mapping CF on S(K) and P(N) must color each one rainbow.

COLOR(N=5, k=2) meets the bound with M = 6: S cost 0, P cost 0, TP cost 0 (all conflict-free).
"""


def test_lower_bound(capsys):
    out = _run_example("lower_bound", capsys)
    assert "chromatic" in out
    assert "all conflict-free" in out
    assert out == LOWER_BOUND_STDOUT


def test_range_query(capsys):
    out = _run_example("range_query", capsys)
    assert "composite access" in out
    assert "COLOR" in out and "LABEL-TREE" in out


def test_degraded_array(capsys):
    out = _run_example("degraded_array", capsys)
    assert "healthy" in out
    assert "dead" in out


def test_other_structures(capsys):
    out = _run_example("other_structures", capsys)
    assert "d-ary" in out
    assert "binomial heap: 400 ops verified" in out
    assert "coding theory" in out


def test_all_examples_have_mains():
    for path in EXAMPLES.glob("*.py"):
        text = path.read_text()
        assert "def main()" in text, path
        assert '__name__ == "__main__"' in text, path
        assert text.startswith("#!/usr/bin/env python"), path
