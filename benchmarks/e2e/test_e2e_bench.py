"""Checks of the e2e benchmark itself, at ``--quick`` sizes.

Quick sizes keep the whole file well under a minute; their numbers are not
comparable with full runs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import workloads
from metrics import E2E_METRICS, LAYER_METRICS, Metric

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = _run("--quick", "--repeats", "2", "--trace", str(out / "trace"), "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out, proc.stdout


def _records(out: Path) -> dict[str, dict]:
    return {
        record["workload"]: record
        for record in (json.loads(path.read_text()) for path in out.glob("*.json"))
    }


def test_every_declared_metric_is_printed_with_its_unit(quick_run):
    _, stdout = quick_run
    blocks = re.split(r"^== ", stdout, flags=re.M)[1:]
    assert [block.split()[0] for block in blocks] == list(workloads.WORKLOADS)
    for block in blocks:
        for metric in E2E_METRICS + LAYER_METRICS:
            pattern = rf"^  {re.escape(metric.name)} +\S+ {re.escape(metric.unit)}\b"
            assert re.search(pattern, block, flags=re.M), (block.split()[0], metric.name)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{name}.{metric.name}": metric.unit
        for name in workloads.WORKLOADS
        for metric in LAYER_METRICS
    }
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected


def test_sim_digest_is_stable_across_runs(quick_run, tmp_path):
    out, _ = quick_run
    first = _records(out)
    proc = _run("--quick", "--repeats", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    second = _records(tmp_path)
    assert {name: r["sim_digest"] for name, r in second.items()} == {
        name: r["sim_digest"] for name, r in first.items()
    }
    for name, record in second.items():
        for metric in E2E_METRICS:
            if metric.exact:
                value = record["metrics"][metric.name]["value"]
                assert value == first[name]["metrics"][metric.name]["value"]


def test_traced_self_times_and_unattributed_sum_to_wall(quick_run):
    out, _ = quick_run
    for name in workloads.WORKLOADS:
        layers = json.loads((out / "trace" / f"{name}.layers.json").read_text())
        rows = layers["rows"]
        assert rows[-1]["name"] == "unattributed"
        accounted = sum(row["self_s"] for row in rows)
        assert accounted == pytest.approx(layers["wall_s"], rel=0.01), name
        assert (out / "trace" / f"{name}.trace.json").is_file()


def test_wrong_access_result_fails_the_checks(monkeypatch, tmp_path):
    from repro.memory import ParallelMemorySystem
    from repro.memory.stats import AccessResult

    access = ParallelMemorySystem.access

    def one_cycle_late(self, nodes, label=""):
        result = access(self, nodes, label=label)
        return AccessResult(
            cycles=result.cycles + 1,
            conflicts=result.conflicts,
            module_counts=result.module_counts,
            size=result.size,
            label=result.label,
        )

    monkeypatch.setattr(ParallelMemorySystem, "access", one_cycle_late)
    result = workloads.run_repeat("replay_barrier", quick=True, work_dir=tmp_path)
    assert result["failures"]
    assert "cycles != conflicts + 1" in result["failures"][0]


def test_pinned_digest_mismatch_fails_the_checks(monkeypatch, tmp_path):
    key = ("serve_light", True)
    assert key in workloads.PINNED_DIGESTS
    monkeypatch.setitem(workloads.PINNED_DIGESTS, key, "0" * 64)
    result = workloads.run_repeat("serve_light", quick=True, work_dir=tmp_path)
    assert result["failures"] == [
        f"sim_digest {result['sim_digest']} != pinned {'0' * 64} for the default seed"
    ]
    other_seed = workloads.run_repeat("serve_light", 4, quick=True, work_dir=tmp_path)
    assert other_seed["failures"] == []


def test_a_renamed_span_fails_instead_of_reading_zero(monkeypatch):
    from trace import Tracer, install, layer_metrics

    tracer = Tracer()
    install(tracer)
    try:
        assert layer_metrics(tracer, 1.0)["memory.access.calls"] == 0
        renamed = Metric("memory.acces.self_share", "ratio")
        monkeypatch.setattr("metrics.LAYER_METRICS", LAYER_METRICS + (renamed,))
        with pytest.raises(KeyError, match="memory.acces"):
            layer_metrics(tracer, 1.0)
    finally:
        tracer.uninstall()


def test_benchmark_json_mirrors_the_metric_table():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {m.name: m for m in E2E_METRICS}
    for entry in spec["end_to_end"]:
        metric = declared[entry["name"]]
        assert not metric.exact, metric.name
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS
    ]


def test_verdicts():
    host = Metric("items_per_s", "items/s", better="higher", bound=0.10)
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [p * 1.2 for p in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(host, parent, faster, pairs) == ("improved", 1.0)
    slower = [p * 0.8 for p in parent]
    assert compare.verdict(host, parent, slower, list(zip(parent, slower)))[0] == "regressed"
    assert compare.verdict(host, parent, parent, list(zip(parent, parent)))[0] == "within bound"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(host, noisy, noisy, list(zip(noisy, noisy)))[0] == "unresolved"
    sim = Metric("sim_cycles", "cycles", exact=True)
    assert compare.verdict(sim, [5.0], [5.0], [(5.0, 5.0)])[0] == "within bound"
    assert compare.verdict(sim, [5.0], [6.0], [(5.0, 6.0)])[0] == "regressed"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "serve_light", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
