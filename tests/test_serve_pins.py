"""Byte pins for what serving draws and what a durable run writes.

Two things must not move when the per-request code of the serving stack
changes shape:

* the stream a traffic client draws: for ``PoissonClient``,
  ``BurstyClient`` and ``ClosedLoopClient`` (fed ``notify`` for each
  request), 5,000 draws over a weighted three-entry mix, a one-entry mix
  and ``composite:24x3``, hashed with every instance's cycle, kind,
  anchor and node order, and with the client's final RNG state;
* every file a short run writes: a durable ``pmtree serve`` with a fault
  schedule, a retry timeout and ``--checkpoint-every``, and a supervised
  ``pmtree fleet`` with a shard kill, a restart and shard state dirs
  (journals, snapshots, fleet snapshots and ``config.json``).

Re-record the table (only after an intentional behaviour change) with
``PYTHONPATH=src python tests/test_serve_pins.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.serve.clients import (
    BurstyClient,
    ClosedLoopClient,
    PoissonClient,
    TemplateMix,
)
from repro.trees import CompleteBinaryTree

DRAWS = 5000
LEVELS = 10

MIXES = {
    "weighted3": "subtree:15=3,path:9=1.5,level:7=0.25",
    "single": "path:6",
    "composite": "composite:24x3",
}

CLIENTS = {
    "poisson": lambda mix: PoissonClient(0, mix, 0.7, seed=21),
    "bursty": lambda mix: BurstyClient(1, mix, 1.3, mean_on=9, mean_off=5, seed=22),
    "closed": lambda mix: ClosedLoopClient(2, mix, concurrency=3, think_time=2, seed=23),
}

SERVE = [
    "serve", "--levels", "9", "--modules", "7", "--cycles", "500",
    "--arrival-rate", "0.3", "--clients", "3", "--seed", "8",
    "--policy", "load-aware",
    "--workload", "subtree:7=2,path:6=1,level:4=1,composite:12x3=1",
    "--faults", "fail=2@80:200,slow=4:3@150:380,drop=0.05@40:460,seed=5",
    "--repair", "color", "--retry-timeout", "30",
    "--state-dir", "durable", "--checkpoint-every", "50",
]
FLEET = [
    "fleet", "--shards", "3", "--router", "least-loaded", "--levels", "8",
    "--modules", "7", "--cycles", "600", "--arrival-rate", "1.2",
    "--workload", "subtree:7=1,path:5=1,level:4=1", "--seed", "2",
    "--kill-shard-at", "1@250", "--restart-after", "80",
    "--checkpoint-every", "100", "--shard-state-dir", "fleet-state",
]
RUNS = {"durable_serve": SERVE, "supervised_fleet": FLEET}

#: (client, mix) -> sha256 of the draw stream and final client state
DRAW_GOLDEN = {
    "poisson-weighted3": "eb630a0c1914ebc34615b42d00957941782596372f540f4597999dc10c5c3a5e",
    "poisson-single": "df339d5718668138304f1b19067d3dc7f8b6f800b26c6872e7c19ce182243da0",
    "poisson-composite": "1c10f920e3ca4b7ef09ba03fe1ba3bbfc74286ce7c6b6141004a50d37e5b2166",
    "bursty-weighted3": "90920b0426414a15faf4fec1178b4878d5fc81878c0ef789b841daed4814a43e",
    "bursty-single": "668059798a27f0231f369f40ba9e878a3fa9fd406ce871db33687f66448edc33",
    "bursty-composite": "a7b34dacf91378dbec8938b171634af373383e0c67438626011b84cadf3ba4f4",
    "closed-weighted3": "756546a7e204ea2581a67b7457d57287125980e11e7213d4c632d9eac21d75eb",
    "closed-single": "f0a92c9b41687552043b90c46825110c0257f7ea2168b9707f3e171bc9715fa5",
    "closed-composite": "25b2b716f80df97c7860b0fbcd6344cb24109f13455f67fedeea67d8e58226f5",
}

#: run -> {relative path: sha256 of the file"s bytes}
FILE_GOLDEN: dict[str, dict[str, str]] = {
    "durable_serve": {
        "durable/config.json": "045f10ca8c324e1861b1c3cab9cc0527e1605c655612ae7e2b70064868f9b61f",
        "durable/journal.jsonl": "8514b4cb0a41e58a07a4f9875f1e64e5883c668591e62d1816b9518c7fa86533",
        "durable/run.json": "dcfea65a623e5dd34146ffd36564c268a6b2ffd7f53b76aea8c57d1998ec719c",
        "durable/snap-000000400.json": "9d574cab4d6dedac3324722b384294ebde22fa1068ad6d5cadc43e1c38ae7027",
        "durable/snap-000000450.json": "5a0ed09643ed334e20ac91d15e7b74ae0e253fa9b942a965de189c16d200c131",
        "durable/snap-000000500.json": "787ff3bef859b2465b31d5f232f22527d0e1f2128d709a50fbf432773ec32352",
    },
    "supervised_fleet": {
        "fleet-state/config.json": "14417158dce776428758b7b02df9e706c9b9a81a0c8ff5ade97a140de0bfcb9d",
        "fleet-state/fleet-000000400.json": "fd8fe2f6132a1e9504ce82588c4c3a7cdbada4fe1c511cde9bbdd19aa43a6083",
        "fleet-state/fleet-000000500.json": "34d5fc1f97f09af180a99a4b62711934b273f376a1dc5033aba8783584f435c2",
        "fleet-state/fleet-000000600.json": "2545605a02835f044a95454fa82eca87b4e360164dabeaf3dac8f1bdc08d2678",
        "fleet-state/run.json": "4f7ab56e18eb5ba13076f1001a64fadf6f3ed8391eaad626193da4729f7d283a",
        "fleet-state/shard-0/journal.jsonl": "e421f2640c67233cf0a29385b4ea81f9e552030ec5047a6e79c9e221f44291fc",
        "fleet-state/shard-0/snap-000000400.json": "91cce18a3293707e81ea668c4a54b623c824c59a20e63351c627c1b86710f4bc",
        "fleet-state/shard-0/snap-000000500.json": "08eb18b1bdaeeb49b30f6d414f43f8a1ba938c44b132d955734c3b4a3b497a0a",
        "fleet-state/shard-0/snap-000000600.json": "e150fc8f3b8796f4cd9ea7bdfee89be5e6bf6deb2dcbe323f69203896d3652c3",
        "fleet-state/shard-1/journal.jsonl": "894c2d5577903136e7b83183e7d693a82d9b659bd07359c45ad40ace61b2ed9e",
        "fleet-state/shard-1/snap-000000400.json": "404c3e91fcff65ceb5c2a28ca1912e1ada4942da2e64475f51684de8fe65ed86",
        "fleet-state/shard-1/snap-000000500.json": "0d21a786f844d4f7722ff9436eea94ef85b6e1cdc388e97715d42a5f7da4d27c",
        "fleet-state/shard-1/snap-000000600.json": "393f1361b71dfb9ae5b461d41ab6bc75badac8cd608e1d6e76a8e68c8aa7545e",
        "fleet-state/shard-2/journal.jsonl": "8ce1a54b9a2021e9eeaf4b3bc6401893e82f97a1cd261cc3119c060f6571eec9",
        "fleet-state/shard-2/snap-000000400.json": "ae7673f08bfe66d4445164697e37e474d3bb1cf08c0617309714efc83b96b114",
        "fleet-state/shard-2/snap-000000500.json": "3352d2e25b2cb354e87fc80e1ae716bd0d186246828365efb3be12c0be95494b",
        "fleet-state/shard-2/snap-000000600.json": "4d12213a4297b3f80c0ab91da203b408b19cbc3e7994748716b38aaefa35b176",
    },
}


def draw_digest(client_name: str, mix_name: str) -> str:
    """Draw ``DRAWS`` instances from one client over one mix; the sha256 of
    every draw (cycle, kind, anchor, nodes in order) and the final state."""
    mix = TemplateMix.parse(CompleteBinaryTree(LEVELS), MIXES[mix_name])
    client = CLIENTS[client_name](mix)
    h = hashlib.sha256()
    drawn = 0
    cycle = 0
    while drawn < DRAWS:
        instances = client.poll(cycle)
        for instance in instances:
            h.update(
                json.dumps(
                    [cycle, instance.kind, instance.anchor, instance.nodes.tolist()]
                ).encode()
            )
            # a closed-loop slot is released when its request completes
            client.notify(None, cycle)
        drawn += len(instances)
        cycle += 1
    h.update(json.dumps(client.state_dict(), sort_keys=True).encode())
    return h.hexdigest()


def run_files(name: str, workdir: Path) -> dict[str, str]:
    """Run one CLI command in ``workdir``; sha256 of every file it wrote."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(list(RUNS[name]))
    finally:
        os.chdir(cwd)
    assert code == 0
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(DRAW_GOLDEN))
def test_draw_stream_matches_pin(case):
    client_name, mix_name = case.split("-")
    assert draw_digest(client_name, mix_name) == DRAW_GOLDEN[case]


@pytest.mark.parametrize("name", sorted(FILE_GOLDEN))
def test_written_files_match_pin(name, tmp_path):
    assert run_files(name, tmp_path) == FILE_GOLDEN[name]


if __name__ == "__main__":
    print("DRAW_GOLDEN = {")
    for case in DRAW_GOLDEN:
        print(f"    {case!r}: {draw_digest(*case.split('-'))!r},")
    print("}")
    print("FILE_GOLDEN = {")
    for name in FILE_GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_files(name, Path(tmp))
        print(f"    {name!r}: {{")
        for path, digest in files.items():
            print(f"        {path!r}: {digest!r},")
        print("    },")
    print("}")
    sys.exit(0)
