"""Compare two sets of e2e benchmark runs, workload by workload.

Usage::

    python benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results JSON files ``run.py --out DIR`` wrote, one
value per metric and run.  Runs pair up by workload and seed, in the order
they started, so alternate the two commits run by run and use the same
seeds on both sides.

For every workload and end-to-end metric the tool prints each side's median
and quartiles over its runs, the change's median against the parent's, the
share of pairs the change won (ties count for neither) and a verdict:

* ``improved`` — the change won at least 9 of 10 pairs, at least 10 pairs
  ran, and the medians differ by more than the parent's quartile spread;
* ``unresolved`` — the run-to-run spread is wider than the metric's bound
  and not every change run beats every parent run;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` — otherwise.

Simulated metrics and ``sim_digest`` must repeat exactly on a seed: any
difference in a pair is reported, as ``improved`` only when every pair got
better.  The exit code is 1 when a row regressed, a digest changed, a run's
checks failed, the change failed more operations than the parent over the
pairs, or a run stopped before its planned repeats.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from metrics import E2E_METRICS, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Results records in ``directory``, by workload, in start order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "workload" in record and "metrics" in record:
            record["path"] = str(path)
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["started_at"])
    return runs


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs of equal seed in start order."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for record in change:
        by_seed[record["seed"]].append(record)
    taken: dict[int, int] = defaultdict(int)
    pairs = []
    for record in parent:
        seed = record["seed"]
        index = taken[seed]
        if index < len(by_seed[seed]):
            pairs.append((record, by_seed[seed][index]))
            taken[seed] = index + 1
    return pairs


def verdict(metric, parent: list[float], change: list[float], pairs) -> tuple[str, float]:
    """``(verdict, share of pairs won)`` for one metric row."""

    def better(a: float, b: float) -> bool:
        return a < b if metric.better == "lower" else a > b

    won = sum(better(c, p) for p, c in pairs) / len(pairs)
    if metric.exact:
        if all(p == c for p, c in pairs):
            return "within bound", won
        return ("improved" if won == 1.0 else "regressed"), won
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if (
        len(pairs) >= MIN_PAIRS
        and won >= WIN_SHARE
        and better(c_med, p_med)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return "improved", won
    spread = max(p_q3 - p_q1, c_q3 - c_q1) / abs(p_med) if p_med else 0.0
    every_run_better = all(better(c, p) for c in change for p in parent)
    if spread > metric.bound and not every_run_better:
        return "unresolved", won
    worse = (c_med - p_med) if metric.better == "lower" else (p_med - c_med)
    if p_med and worse / abs(p_med) > metric.bound:
        return "regressed", won
    return "within bound", won


def compare(parent_dir: Path, change_dir: Path) -> int:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    status = 0
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        pairs = pair_runs(parent, change)
        print(f"== {workload}: {len(parent)} parent runs, {len(change)} change runs, "
              f"{len(pairs)} pairs ==")
        if not pairs:
            print("  no runs of equal seed on both sides")
            status = 1
            continue
        if {r["quick"] for r in parent + change} != {False}:
            print("  quick runs are not comparable")
            status = 1
            continue
        short = [r["path"] for r in parent + change if r["repeats"] < r["repeats_planned"]]
        if short:
            print(f"  runs that stopped before their planned repeats: {short}")
            status = 1
            continue
        broken = [r for r in parent + change if not r["correct"]]
        for record in broken:
            print(f"  checks FAILED in {record['path']}:")
            for failure in record["failures"]:
                print(f"    ! {failure}")
        if broken:
            status = 1
            continue
        if len(pairs) < MIN_PAIRS:
            print(f"  fewer than {MIN_PAIRS} pairs: no gain can be claimed")
        failed = [sum(p["failed"] for p, _ in pairs), sum(c["failed"] for _, c in pairs)]
        print(f"  failed operations over the pairs: parent {failed[0]}, change {failed[1]}")
        if failed[1] > failed[0]:
            print("  the change failed more operations: no gain counts")
            status = 1
        for metric in E2E_METRICS:
            p_vals = [r["metrics"][metric.name]["value"] for r in parent]
            c_vals = [r["metrics"][metric.name]["value"] for r in change]
            pair_vals = [
                (p["metrics"][metric.name]["value"], c["metrics"][metric.name]["value"])
                for p, c in pairs
            ]
            row, won = verdict(metric, p_vals, c_vals, pair_vals)
            if row == "regressed":
                status = 1
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            delta = f"{100 * (c_med / p_med - 1):+6.1f}%" if p_med else "      -"
            print(
                f"  {metric.name:<21} parent {p_med:>12.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                f"change {c_med:>12.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
                f"{delta}  won {100 * won:5.1f}%  {row}"
            )
        same = all(p["sim_digest"] == c["sim_digest"] for p, c in pairs)
        print(f"  {'sim_digest':<21} {'identical' if same else 'CHANGED'} on every pair")
        if not same:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args(argv)
    return compare(args.parent_dir, args.change_dir)


if __name__ == "__main__":
    sys.exit(main())
