"""End-to-end benchmark: replay, serving, durability and fleet.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/e2e/run.py [--workloads W ...] [--seed N]
        [--repeats R | --seconds S] [--trace DIR|0|1] [--quick] [--out DIR]

Each repeat of a workload runs in its own fresh child process
(``workloads.py``), one after another, single-threaded, with
``PYTHONHASHSEED=0``.  The command prints every end-to-end metric by name
with its unit (and the quartiles over the repeats), checks the simulated
outputs, writes one results JSON per workload under ``--out`` and ends with
one JSON line carrying the end-to-end metrics ``BENCHMARK.json`` lists::

    {"correct": true, "attempted": 70400, "failed": 0, "metrics": {...}}

``--repeats R`` runs exactly R repeats (default 5).  ``--seconds S`` instead
runs S over the workload's nominal timed seconds, within
``[MIN_REPEATS, MAX_REPEATS]``.  ``--trace`` runs each workload once more with every layer
boundary wrapped (see ``trace.py``); the last line then carries the
per-layer metrics instead.  ``--trace 0`` is off and ``--trace 1`` writes to
``<out>/trace``, the form in which a harness that only toggles tracing
passes it.  ``--quick`` shrinks every workload (numbers are not comparable
with full runs).  The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"

#: host time per step is the fastest of the repeats (see host_metrics);
#: fewer than 4 repeats let one slow stretch of the host through
MIN_REPEATS = 4
MAX_REPEATS = 10
#: longest a child may run, and in ``--seconds`` mode a whole workload,
#: under a 180 s limit per invocation
BUDGET_S = 170.0


class ChildError(RuntimeError):
    """A repeat crashed, timed out or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(spec: dict, timeout: float) -> dict:
    """Run one repeat in a fresh interpreter and return its result record."""
    from workloads import CHECK_FAILED

    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=REPO,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{spec['workload']}: repeat timed out after {exc.timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, CHECK_FAILED) or not lines:
        raise ChildError(
            f"{spec['workload']}: repeat exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def host_metrics(runs: list[dict]) -> dict[str, tuple[float, float | None, float | None]]:
    """``(value, q1, q3)`` of each host metric over one seed's repeats.

    ``setup_s``, ``peak_rss_mb``, ``items_per_s`` (items over the whole
    timed phase) and the step percentiles are the median of the repeats'
    own values, with their quartiles.

    The ``best_`` metrics read the same steps at the host's undisturbed
    speed.  Every repeat of a seed runs the same steps, and other tenants of
    a shared host can only slow a step down, so each step counts at the
    fastest of its repeats, and so does the timed phase's time outside the
    steps (start, finish, the loop itself).  Being one number from all
    repeats, they have no quartiles.
    """
    import numpy as np

    from metrics import quartiles

    steps = np.array([run["step_ns"] for run in runs], dtype=np.float64) / 1e9
    outside = min(run["wall_s"] - row.sum() for run, row in zip(runs, steps))
    fastest = steps.min(axis=0)
    items = runs[0]["items"]
    per_repeat = {
        "setup_s": [run["host"]["setup_s"] for run in runs],
        "peak_rss_mb": [run["host"]["peak_rss_mb"] for run in runs],
        "items_per_s": [items / run["wall_s"] for run in runs],
        "step_p50_us": [np.percentile(row, 50) * 1e6 for row in steps],
        "step_p99_us": [np.percentile(row, 99) * 1e6 for row in steps],
    }
    out = {}
    for name, values in per_repeat.items():
        q1, median, q3 = quartiles(values)
        out[name] = (median, q1, q3)
    out["best_items_per_s"] = (items / (fastest.sum() + outside), None, None)
    out["best_step_p50_us"] = (float(np.percentile(fastest, 50)) * 1e6, None, None)
    out["best_step_p99_us"] = (float(np.percentile(fastest, 99)) * 1e6, None, None)
    return out


def repeat_count(name: str, args) -> int:
    """Repeats of one workload: ``--repeats``, or ``--seconds`` over the
    workload's nominal timed seconds, so both commits of a comparison run
    the same number of repeats however fast each is."""
    from workloads import WORKLOADS

    if args.repeats is not None:
        return args.repeats
    nominal = round(args.seconds / WORKLOADS[name].timed_s)
    return min(MAX_REPEATS, max(MIN_REPEATS, nominal))


def layer_record(name: str, runs: list[dict], traced: dict, trace_dir: Path) -> dict:
    """Per-layer metrics of the traced run; writes its layer table."""
    from metrics import LAYER_METRICS
    from trace import format_table, tracing_overhead

    layers = {**traced["model"], **traced["layers"]}
    untraced = statistics.median(run["items"] / run["wall_s"] for run in runs)
    layers["trace.overhead"] = tracing_overhead(untraced, traced["items"] / traced["wall_s"])
    declared = {m.name for m in LAYER_METRICS}
    if set(layers) != declared:
        raise KeyError(
            f"per-layer metrics missing {sorted(declared - set(layers))}, "
            f"undeclared {sorted(set(layers) - declared)}"
        )
    per_layer = {m.name: {"value": layers[m.name], "unit": m.unit} for m in LAYER_METRICS}
    text = format_table(traced["table"], traced["wall_s"])
    text += f"\ntracing overhead: {100 * layers['trace.overhead']:.1f}% fewer items/s\n"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{name}.layers.txt").write_text(text)
    (trace_dir / f"{name}.layers.json").write_text(
        json.dumps(
            {"wall_s": traced["wall_s"], "rows": traced["table"], "metrics": per_layer},
            indent=1,
        )
    )
    return per_layer


def measure(name: str, seed: int, args, out: Path, trace_dir: Path | None) -> dict:
    """All repeats of one workload (plus its traced run) folded into a record."""
    from metrics import E2E_METRICS

    started = time.time()
    start = time.monotonic()
    deadline = start + BUDGET_S if args.seconds is not None else None
    spec = {
        "workload": name,
        "seed": seed,
        "quick": args.quick,
        "work_dir": str(out / "work"),
    }

    def timeout() -> float:
        if deadline is None:
            return BUDGET_S
        return min(BUDGET_S, deadline - time.monotonic())

    planned = repeat_count(name, args)
    runs: list[dict] = []
    failures: list[str] = []
    try:
        for _ in range(planned):
            began = time.monotonic()
            run = run_child(spec, timeout())
            runs.append(run)
            failures += run["failures"]
            if failures:
                break
            # on a host so slow that the next repeat would overrun the budget,
            # stop early; fewer repeats than planned make the record one that
            # compare.py refuses, since a ``best_`` metric reads better with
            # more repeats
            now = time.monotonic()
            if deadline is not None and now + (now - began) > deadline:
                break
        traced = None
        if trace_dir is not None and not failures:
            traced = run_child(dict(spec, trace_dir=str(trace_dir)), timeout())
            failures += traced["failures"]
    except ChildError as exc:
        failures.append(str(exc))
        traced = None

    digests = {run["sim_digest"] for run in runs + ([traced] if traced else [])}
    if len(digests) > 1:
        failures.append(f"sim_digest differs between repeats of one seed: {sorted(digests)}")
    attempted = sum(run["attempted"] for run in runs) or 1
    failed = sum(run["failed"] for run in runs)
    if failures:
        failed = attempted

    metrics = {}
    if runs and not failures:
        host = host_metrics(runs)
        for metric in E2E_METRICS:
            if metric.exact:
                value, q1, q3 = runs[0]["sim"][metric.name], None, None
            else:
                value, q1, q3 = host[metric.name]
            metrics[metric.name] = {
                "value": value, "unit": metric.unit, "q1": q1, "q3": q3, "n": len(runs)
            }

    per_layer = table = None
    if traced is not None:
        per_layer = layer_record(name, runs, traced, trace_dir)
        table = traced["table"]

    record = {
        "workload": name,
        "seed": seed,
        "quick": args.quick,
        "started_at": started,
        "elapsed_s": time.monotonic() - start,
        "repeats": len(runs),
        "repeats_planned": planned,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "sim_digest": runs[0]["sim_digest"] if runs else None,
        "metrics": metrics,
        "per_layer": per_layer,
        "trace_table": table,
        "runs": [{k: v for k, v in run.items() if k != "step_ns"} for run in runs],
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}-seed{seed}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path)
    return record


def print_record(record: dict) -> None:
    print(
        f"== {record['workload']} (seed {record['seed']}, "
        f"{record['repeats']} repeats{', quick' if record['quick'] else ''}) =="
    )
    if record["repeats"] < record["repeats_planned"]:
        print(
            f"  ! stopped after {record['repeats']} of {record['repeats_planned']} repeats "
            f"to stay within {BUDGET_S:.0f} s: not comparable"
        )
    for name, m in record["metrics"].items():
        spread = (
            "" if m["q1"] is None else f"   [repeats q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
        )
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<10}{spread}".rstrip())
    if record["per_layer"]:
        for name, m in record["per_layer"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'sim_digest':<22} {record['sim_digest']}")
    print(f"  {'checks':<22} {'ok' if record['correct'] else 'FAILED'}")
    for failure in record["failures"]:
        print(f"    ! {failure}")
    print(f"  results: {record['path']}")


def result_metrics(traced: bool) -> list[str]:
    """Metrics the one-line result carries: those ``BENCHMARK.json`` lists
    as end-to-end, or with ``--trace`` as per-layer."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", "--workload", nargs="+", metavar="W")
    parser.add_argument("--seed", type=int, help="input seed (default: per workload)")
    count = parser.add_mutually_exclusive_group()
    count.add_argument("--repeats", type=int, help="repeats per workload (default 5)")
    count.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", help="DIR for a traced run; 0 = off, 1 = <out>/trace")
    parser.add_argument("--quick", action="store_true", help="reduced, non-comparable sizes")
    parser.add_argument("--out", type=Path, default=REPO / ".e2e_results")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package to benchmark", file=sys.stderr)
        return 2
    # turn SIGTERM into an exception so subprocess.run kills and reaps the
    # running repeat before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import WORKLOADS

    names = args.workloads or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; pick from {list(WORKLOADS)}")
    if args.seconds is None and args.repeats is None:
        args.repeats = 5
    if (args.repeats is not None and args.repeats < 1) or (
        args.seconds is not None and args.seconds <= 0
    ):
        parser.error("--repeats and --seconds must be positive")
    args.out = args.out.resolve()
    trace_dir = None
    if args.trace not in (None, "0"):
        trace_dir = args.out / "trace" if args.trace == "1" else Path(args.trace).resolve()

    records = []
    for name in names:
        seed = WORKLOADS[name].seed if args.seed is None else args.seed
        record = measure(name, seed, args, args.out, trace_dir)
        print_record(record)
        records.append(record)

    traced = trace_dir is not None
    summary = {}
    for record in records:
        source = record["per_layer"] if traced else record["metrics"]
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for name in result_metrics(traced):
            if source and name in source:
                summary[prefix + name] = {
                    "value": source[name]["value"],
                    "unit": source[name]["unit"],
                }
    correct = all(record["correct"] for record in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(record["attempted"] for record in records),
                "failed": sum(record["failed"] for record in records),
                "metrics": summary,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
