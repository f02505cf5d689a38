"""Shared fixtures for the benchmark harness.

Each ``bench_eNN_*.py`` file regenerates one paper result (see DESIGN.md,
Section 5): it asserts the claim at quick scale and times the computational
kernel behind it with pytest-benchmark.

``rows_pin`` checks an experiment's quick-scale table against the digest in
``data/experiment_rows.json``, so a refactor of an experiment cannot move a
single cell unnoticed.  ``PYTHONPATH=src python benchmarks/conftest.py``
re-records the digests after a deliberate change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.trees import CompleteBinaryTree

ROWS_PINS = Path(__file__).parent / "data" / "experiment_rows.json"
PINNED = ("E18", "E19", "E20", "E21", "E22")


def rows_digest(rows) -> str:
    """sha256 of ``json.dumps(rows, default=str)``, without wall-clock cells
    (E20's ``"… of wall"`` checkpoint overhead)."""
    rows = [
        [cell for cell in row if not (isinstance(cell, str) and cell.endswith(" of wall"))]
        for row in rows
    ]
    return hashlib.sha256(json.dumps(rows, default=str).encode()).hexdigest()


@pytest.fixture(scope="session")
def rows_pin():
    pins = json.loads(ROWS_PINS.read_text())

    def check(result):
        assert rows_digest(result.rows) == pins[result.exp_id], (
            f"{result.exp_id} quick-scale rows changed:\n{result}"
        )

    return check


@pytest.fixture(scope="session")
def tree14():
    return CompleteBinaryTree(14)


@pytest.fixture(scope="session")
def tree12():
    return CompleteBinaryTree(12)


if __name__ == "__main__":
    from repro.bench.experiments import run_experiment

    pins = {exp: rows_digest(run_experiment(exp, "quick").rows) for exp in PINNED}
    ROWS_PINS.parent.mkdir(exist_ok=True)
    ROWS_PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(json.dumps(pins, indent=2))
