"""A ``--workload`` that names no valid mix is one stderr line, exit 2.

numpy's ``rng.choice`` used to be the first thing to see a NaN weight
("Probabilities contain NaN"), and a bad size or an unparsable weight
surfaced as a traceback from deep inside the build.  With the draw now a
``bisect`` over a prebuilt CDF, a non-finite weight would instead pick an
index silently, so :class:`~repro.serve.clients.MixEntry` rejects it and
:class:`~repro.serve.clients.TemplateMix` rejects a non-finite total, and
``pmtree serve`` / ``fleet`` / ``daemon`` check the mix before building.
"""

import pytest

from repro.cli import main
from repro.serve import MixEntry, TemplateMix
from repro.trees import CompleteBinaryTree

BAD = [
    "subtree:7=nan",
    "subtree:7=inf",
    "subtree:7=abc",
    "subtree:7=-1",
    "subtree:6",
    "subtree:7=1e308,path:5=1e308",
    "composite:900x3",
    "ring:3",
]

COMMANDS = {
    "serve": ["serve", "--levels", "9", "--modules", "7", "--cycles", "20"],
    "fleet": ["fleet", "--shards", "2", "--levels", "9", "--modules", "7", "--cycles", "20"],
}


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_mix_entry_rejects_a_non_finite_or_non_positive_weight(weight):
    with pytest.raises(ValueError, match="finite and > 0"):
        MixEntry("subtree", 7, weight)


def test_mix_rejects_a_total_that_overflows():
    entries = [MixEntry("subtree", 7, 1e308), MixEntry("path", 5, 1e308)]
    with pytest.raises(ValueError, match="finite total"):
        TemplateMix(CompleteBinaryTree(9), entries)


def test_mix_rejects_a_composite_too_large_to_place():
    with pytest.raises(ValueError, match="too large"):
        TemplateMix(CompleteBinaryTree(9), [MixEntry("composite", 256, 1.0, 3)])


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("workload", BAD)
def test_bad_workload_is_one_line_and_exit_2(command, workload, capsys, tmp_path):
    argv = [*COMMANDS[command], "--workload", workload]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"pmtree: --workload {workload!r}: ")
    assert "Traceback" not in captured.err
