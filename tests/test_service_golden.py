"""Golden event streams for the memory system's service loop.

Every replay mode (barrier, pipelined, open-loop) and the serving engine
drive the modules through the same cycle rules: the round-robin scan under
the interconnect's issue limit, the drop lottery, completion at
``cycle + latency`` and the ``queue_depth`` / ``stall`` events.  This test
pins, for a small matrix of configurations, the sha256 of the recorded
event stream together with the run's results (``TraceStats``,
``last_latencies``, ``dropped`` and ``module_stats()`` for replay; the
report for serving).  A refactor of the loop must leave every digest
unchanged.

The matrix: the three replay modes x Crossbar / SharedBus / MultiBus(3) x
module (latency, ports) of (1, 1), (2, 1) and (1, 2) x with and without a
fail/slow/drop schedule x COLOR and LABEL-TREE, plus two serve runs with a
fault schedule and a retry timeout, one with ``repair="color"`` and one
with ``repair="none"``.

Re-record the table (only after an intentional behaviour change) with
``PYTHONPATH=src python tests/test_service_golden.py``.
"""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import heap_workload, range_query_workload
from repro.core import ColorMapping, LabelTreeMapping
from repro.memory import (
    Crossbar,
    MultiBus,
    ParallelMemorySystem,
    SharedBus,
    parse_faults,
)
from repro.obs.events import EventRecorder
from repro.serve.config import EngineConfig
from repro.serve.slo import WALL_CLOCK_FIELDS
from repro.trees import CompleteBinaryTree

TABLE = Path(__file__).resolve().parent / "data" / "service_golden.json"

LEVELS = 6
MODULES = 7
REPLAY_FAULTS = "fail=2@3:25,slow=4:3@5:60,drop=0.15@0:90,seed=3"
OPEN_LOOP_INTERVAL = 2

MODES = ("barrier", "pipelined", "open")
INTERCONNECTS = {
    "crossbar": Crossbar,
    "bus": SharedBus,
    "multibus3": lambda: MultiBus(3),
}
MODULE_SHAPES = {"lat1": (1, 1), "lat2": (2, 1), "ports2": (1, 2)}
MAPPINGS = {
    "color": lambda tree: ColorMapping.for_modules(tree, MODULES),
    "labeltree": lambda tree: LabelTreeMapping(tree, MODULES),
}

SERVE = dict(
    levels=7,
    modules=MODULES,
    cycles=300,
    arrival_rate=0.3,
    clients=2,
    workload="subtree:7=2,path:6=1,level:4=1",
    seed=2,
    obs="events.jsonl",
    faults="fail=2@60:160,slow=4:3@80:250,drop=0.05@30:280,seed=5",
    retry_timeout=30,
)

REPLAY_CASES = [
    "-".join(parts)
    for parts in itertools.product(
        MODES, INTERCONNECTS, MODULE_SHAPES, ("plain", "faults"), MAPPINGS
    )
]
SERVE_CASES = ["serve-color", "serve-none"]


def _trace():
    tree = CompleteBinaryTree(LEVELS)
    trace = heap_workload(tree, ops=14, seed=1)
    trace.extend(range_query_workload(tree, queries=4, seed=1))
    trace.add(np.arange(1, 2**LEVELS - 1, 3), label="sweep")
    return tree, trace


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot pin {type(value).__name__}")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def run_replay(case: str) -> str:
    mode, interconnect, shape, faults, mapping_name = case.split("-")
    tree, trace = _trace()
    latency, ports = MODULE_SHAPES[shape]
    recorder = EventRecorder()
    system = ParallelMemorySystem(
        MAPPINGS[mapping_name](tree),
        interconnect=INTERCONNECTS[interconnect](),
        module_latency=latency,
        module_ports=ports,
        record_latencies=True,
        recorder=recorder,
    )
    if faults == "faults":
        system.attach_faults(parse_faults(REPLAY_FAULTS))
    if mode == "open":
        stats = system.run_open_loop(trace, OPEN_LOOP_INTERVAL)
    else:
        stats = system.run_trace(trace, pipelined=mode == "pipelined")
    return _digest(
        {
            "events": recorder.events,
            "meta": recorder.meta,
            "stats": dataclasses.asdict(stats),
            "latencies": system.last_latencies,
            "dropped": system.dropped,
            "modules": system.module_stats(),
        }
    )


def run_serve(case: str) -> str:
    config = EngineConfig(**SERVE, repair=case.split("-")[1])
    engine, clients, recorder = config.build()
    report = engine.run(clients, config.cycles)
    fields = {
        k: v
        for k, v in dataclasses.asdict(report).items()
        if k not in WALL_CLOCK_FIELDS
    }
    return _digest(
        {
            "events": recorder.events,
            "meta": recorder.meta,
            "report": fields,
            "dropped": engine.system.dropped,
            "modules": engine.system.module_stats(),
        }
    )


def run_case(case: str) -> str:
    return run_serve(case) if case.startswith("serve-") else run_replay(case)


GOLDEN = json.loads(TABLE.read_text()) if TABLE.exists() else {}


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(REPLAY_CASES + SERVE_CASES)


@pytest.mark.parametrize("case", REPLAY_CASES + SERVE_CASES)
def test_service_digest(case):
    assert run_case(case) == GOLDEN[case]


if __name__ == "__main__":
    table = {case: run_case(case) for case in REPLAY_CASES + SERVE_CASES}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {TABLE}")
