"""Golden CLI output: the sha256 of ``pmtree`` stdout for serving, fleet and
crash recovery, pinned so that changes to how runs are configured and built
cannot change what a run prints.

Each case runs in-process in a fresh directory with relative state-dir
paths, so the output carries no machine-specific path.  The only line left
out of the hash is the wall-clock ``durable run: ... overhead`` line.

The parent-written ``config.json`` fixtures under ``tests/data/`` pin the
on-disk config format: each must load into its dataclass and write back
byte-for-byte.

Re-record the table (only after an intentional output change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).resolve().parent / "data"

SERVE = [
    "--levels", "9", "--modules", "7", "--cycles", "400",
    "--arrival-rate", "0.25", "--clients", "3", "--seed", "4",
    "--workload", "subtree:7=2,path:6=1,level:4=1",
]
FAULTS = [
    "--faults", "fail=2@100:220,slow=4:3@150:400,drop=0.05@50:500,seed=5",
    "--repair", "color", "--retry-timeout", "40",
]
FLEET = [
    "--shards", "3", "--router", "least-loaded", "--levels", "8",
    "--modules", "7", "--cycles", "600", "--arrival-rate", "1.2",
    "--workload", "subtree:7=1,path:5=1,level:4=1", "--seed", "0",
    "--kill-shard-at", "2@300", "--restart-after", "100",
    "--checkpoint-every", "100",
]

#: case -> the commands it runs in one directory, in order; each command's
#: stdout is pinned separately
CASES = {
    "serve_plain": [["serve", *SERVE]],
    "serve_faults_color": [
        ["serve", *SERVE, *FAULTS, "--state-dir", "durable", "--checkpoint-every", "50"]
    ],
    "fleet_kill_restart": [["fleet", *FLEET]],
    "serve_recover": [
        ["serve", *SERVE, *FAULTS, "--state-dir", "state",
         "--checkpoint-every", "50", "--crash-at", "300"],
        ["recover", "--state-dir", "state"],
    ],
    "serve_recover_mid_checkpoint": [
        ["serve", *SERVE, *FAULTS, "--state-dir", "state",
         "--checkpoint-every", "50", "--crash-at", "300",
         "--crash-mode", "mid_checkpoint"],
        ["recover", "--state-dir", "state"],
    ],
    "fleet_recover": [
        ["fleet", *FLEET, "--shard-state-dir", "fleet-state", "--crash-at", "450"],
        ["recover", "--fleet", "fleet-state"],
    ],
}

#: (exit code, sha256 of stdout) per command of each case
GOLDEN = {
    "serve_plain": [
        (0, "8b89a29737c5b7d3a1e5ba2e7286cb3f9bf8d6507635d4d96d53147b9a5aef88"),
    ],
    "serve_faults_color": [
        (0, "1459df9602e357f2ed691d8377e126134b4d3a150fdf9c5bfcc413e7549227cf"),
    ],
    "fleet_kill_restart": [
        (0, "9f21f0c2161dbdc0813f635db8319a770a49bc07bbf35f5aa14a5c27df3cda73"),
    ],
    "serve_recover": [
        (9, "961b5a154ef80e842a94c678fff132d5377e802b34cc7b4a30af6301bbe818c7"),
        (0, "4bcfd350a4233fba3de5c6b0a5b13d53b1da779aff22b75f913b4027cd55743e"),
    ],
    "serve_recover_mid_checkpoint": [
        (9, "5b61551372eadfb5dcbccc5a5b83a6ec7e2ade1c643d35ce384dc92a547451e4"),
        (0, "4bcfd350a4233fba3de5c6b0a5b13d53b1da779aff22b75f913b4027cd55743e"),
    ],
    "fleet_recover": [
        (9, "ffe3da29704a5e03faf38f8f9b278ca52125a61f685528c87b935c481dced827"),
        (0, "6e9286d54939b0ea38ce07957e066250e6f2f7145354ac865e3eb56e1fc66a2d"),
    ],
}


def _digest(stdout: str) -> str:
    kept = [
        line
        for line in stdout.splitlines(keepends=True)
        if not line.startswith("durable run:")
    ]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def run_command(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Run one ``pmtree`` command in ``workdir``; ``(exit code, digest)``."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, _digest(out.getvalue())


def run_case(name: str, workdir: Path) -> list[tuple[int, str]]:
    """Run one case's commands in ``workdir``; ``(exit code, digest)`` each."""
    return [run_command(argv, workdir) for argv in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


def test_parent_written_state_dir_recovers(tmp_path):
    """``tests/data/serve_state_parent`` is the state dir the first
    ``serve_recover`` command leaves, written before snapshots and journal
    records were stored canonically (spaced, insertion-ordered JSON).  It
    recovers to the pinned stdout, and the snapshot the current writer
    leaves at the same cycle parses to the same payload."""
    from repro.io import load_snapshot

    parent = DATA / "serve_state_parent"
    snap = "snap-000000250.json"
    assert '"payload": {"version": 1, "cycle": 250' in (parent / snap).read_text()
    shutil.copytree(parent, tmp_path / "state")
    recover = ["recover", "--state-dir", "state"]
    assert run_command(recover, tmp_path) == GOLDEN["serve_recover"][1]

    crash = CASES["serve_recover"][0]
    (tmp_path / "new").mkdir()
    assert run_command(crash, tmp_path / "new") == GOLDEN["serve_recover"][0]
    assert load_snapshot(tmp_path / "new" / "state" / snap) == load_snapshot(
        parent / snap
    )


@pytest.mark.parametrize(
    "fixture, kind",
    [
        ("config_serve.json", "engine"),
        ("config_daemon.json", "engine"),
        ("config_fleet.json", "fleet"),
    ],
)
def test_parent_written_config_round_trips(fixture, kind):
    from repro.fleet import FleetConfig
    from repro.serve import EngineConfig

    cls = EngineConfig if kind == "engine" else FleetConfig
    text = (DATA / fixture).read_text()
    config = cls.from_json(text, source=fixture)
    assert config.to_json() == text
    assert cls.from_json(config.to_json()) == config


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(case, Path(tmp))!r},")
    sys.exit(0)
