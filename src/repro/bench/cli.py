"""Command line interface: regenerate the paper's results.

Usage::

    python -m repro.bench list
    python -m repro.bench run E4 [--quick]
    python -m repro.bench run all [--quick] [--markdown experiments.md]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import _registry, run_all, run_experiment
from repro.bench.report import render_markdown

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmtree-bench",
        description="Regenerate the paper's quantitative results "
        "(see DESIGN.md Section 5 and EXPERIMENTS.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the experiment registry")
    run = sub.add_parser("run", help="run one experiment or 'all'")
    run.add_argument(
        "experiment", help="experiment id (E1..E22, A1..A6, X1..X4; see `list`) or 'all'"
    )
    run.add_argument(
        "--quick", action="store_true", help="reduced sweeps (CI-sized)"
    )
    run.add_argument(
        "--markdown",
        metavar="PATH",
        help="also write the results as a markdown report",
    )
    run.add_argument(
        "--obs",
        metavar="PATH",
        help="record cycle-level telemetry from every simulated system "
        "into one .jsonl artifact (see `pmtree obs report`)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    registry = _registry()
    if args.command == "list":
        for exp_id, fn in registry.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{exp_id:4s} {fn.__name__}: {summary}")
        return 0

    if args.experiment.lower() != "all" and args.experiment.upper() not in registry:
        print(
            f"pmtree-bench: unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(registry)} or 'all'",
            file=sys.stderr,
        )
        return 2
    scale = "quick" if args.quick else "full"
    recorder = None
    if args.obs:
        from repro.obs import EventRecorder, install

        recorder = EventRecorder()
        recorder.set_meta(harness="pmtree-bench", experiment=args.experiment, scale=scale)
        install(recorder)  # every system built by the experiments records
    t0 = time.time()
    try:
        if args.experiment.lower() == "all":
            results = run_all(scale)
        else:
            results = [run_experiment(args.experiment, scale)]
    finally:
        if recorder is not None:
            from repro.obs import uninstall

            uninstall()
            path = recorder.save(args.obs)
            print(f"wrote telemetry ({len(recorder.events)} events) to {path}")
    failures = 0
    for result in results:
        print(result)
        print()
        if not result.holds:
            failures += 1
    print(f"ran {len(results)} experiment(s) in {time.time() - t0:.1f}s; "
          f"{failures} claim violation(s)")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write("# Regenerated results\n\n")
            for result in results:
                fh.write(render_markdown(result))
                fh.write("\n")
            if args.experiment.lower() == "all":
                from repro.bench.figures import render_figures

                fh.write(render_figures(scale))
                fh.write("\n")
        print(f"wrote {args.markdown}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
