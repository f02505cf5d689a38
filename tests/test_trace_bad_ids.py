"""Traces naming nodes a tree does not have are rejected, never replayed.

numpy indexing wraps a negative id (node ``-1`` of a 31-node tree reads
node 30's color) and an id past the tree raises a raw ``IndexError``, so
the checks sit at the boundaries: :meth:`AccessTrace.add` (and therefore
:meth:`AccessTrace.load`) rejects negative ids, and ``pmtree simulate`` /
``obs record`` / ``profile`` turn a bad trace into one line on stderr and
exit 2.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.memory import AccessTrace

LEVELS = 5  # 31 nodes: ids 0..30


def _write_raw_trace(path, nodes):
    """Write a trace file without going through AccessTrace.add."""
    labels = json.dumps(["bad"]).encode()
    np.savez_compressed(
        path,
        nodes=np.asarray(nodes, dtype=np.int64),
        sizes=np.array([len(nodes)], dtype=np.int64),
        labels=np.frombuffer(labels, dtype=np.uint8),
    )
    return path


@pytest.fixture
def mapping_file(tmp_path):
    path = tmp_path / "m.npz"
    main(["build", "--levels", str(LEVELS), "--color", "5,2", "--out", str(path)])
    return path


class TestAccessTraceRejectsNegativeIds:
    def test_add(self):
        with pytest.raises(ValueError, match="node ids must be >= 0"):
            AccessTrace().add(np.array([0, 1, -1]))

    def test_constructor(self):
        with pytest.raises(ValueError, match="node ids must be >= 0"):
            AccessTrace([("x", np.array([-3]))])

    def test_load(self, tmp_path):
        path = _write_raw_trace(tmp_path / "neg.npz", [0, -1])
        with pytest.raises(ValueError, match="node ids must be >= 0"):
            AccessTrace.load(path)


def _run_cli(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.err


@pytest.mark.parametrize("mode", ["barrier", "pipelined", "open-loop"])
@pytest.mark.parametrize("node", [-1, 2**LEVELS - 1, 1000])
def test_simulate_exits_2(tmp_path, mapping_file, capsys, mode, node):
    trace = _write_raw_trace(tmp_path / "t.npz", [0, 1, node])
    code, err = _run_cli(
        ["simulate", str(mapping_file), str(trace), "--mode", mode], capsys
    )
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(node) in err


def test_obs_record_exits_2(tmp_path, mapping_file, capsys):
    trace = _write_raw_trace(tmp_path / "t.npz", [2**LEVELS - 1])
    out = tmp_path / "run.jsonl"
    code, err = _run_cli(
        ["obs", "record", str(mapping_file), str(trace), "--out", str(out)], capsys
    )
    assert code == 2
    assert "tree has 31 nodes" in err
    assert not out.exists()


def test_profile_exits_2_on_negative_id(tmp_path, capsys):
    trace = _write_raw_trace(tmp_path / "t.npz", [0, -1])
    code, err = _run_cli(["profile", str(trace)], capsys)
    assert code == 2
    assert err.count("\n") == 1 and "node ids must be >= 0" in err


def test_largest_valid_id_still_replays(tmp_path, mapping_file, capsys):
    trace = _write_raw_trace(tmp_path / "t.npz", [0, 2**LEVELS - 2])
    assert main(["simulate", str(mapping_file), str(trace)]) == 0
    assert "items/cycle" in capsys.readouterr().out
