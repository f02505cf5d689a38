"""The ``pmtree`` command line tool.

Operational entry points for the library (the experiment harness has its own
CLI under ``python -m repro.bench``):

* ``pmtree build``    — compute a mapping and save it to ``.npz``;
* ``pmtree info``     — inspect a mapping: parameters, load, top-level view;
* ``pmtree verify``   — exhaustively check a mapping against template families;
* ``pmtree trace``    — generate a workload trace file;
* ``pmtree simulate`` — replay a trace file against a mapping file
  (``--obs out.jsonl`` records cycle-level telemetry, ``--faults`` injects
  static or timed module faults);
* ``pmtree serve``    — serve an online request stream with conflict-aware
  composite batching (see :mod:`repro.serve`); ``--faults`` plus
  ``--repair``/``--retry-timeout`` exercise the resilience ladder, and
  ``--state-dir``/``--checkpoint-every`` make the run durable (checkpoints
  plus a write-ahead journal; ``--crash-at`` simulates a kill, exit 9);
* ``pmtree recover``  — resume a crashed durable run from its latest valid
  snapshot, replaying and verifying the journal (``--state-dir`` for a
  serve run, ``--fleet`` for a supervised fleet run);
* ``pmtree fleet``    — serve a multi-tenant stream across N engine shards
  with routing, quotas and shard-loss failover (see :mod:`repro.fleet`);
  ``--restart-after``/``--restart-budget`` turn on self-healing restarts
  and ``--shard-state-dir``/``--checkpoint-every`` make the run durable
  per shard (``--crash-at`` simulates a whole-fleet kill, exit 9);
* ``pmtree obs``      — telemetry tooling: ``record`` / ``report`` /
  ``diff`` (regression gate) / ``export`` (Chrome trace);
* ``pmtree perf``     — wall-clock perf tooling over the fixed scenario
  matrix (see :mod:`repro.bench.perf`): ``record`` (append to
  ``BENCH_<name>.json`` trajectories) / ``report`` / ``diff`` (the CI perf
  gate, exit 3 on regression) / ``expose`` (Prometheus-style text).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.analysis import family_cost, load_report, render_coloring
from repro.core import ColorMapping, LabelTreeMapping, ModuloMapping, RandomMapping
from repro.core.mapping import TreeMapping
from repro.fleet.config import FleetConfig
from repro.fleet.router import ROUTERS
from repro.io import load_mapping, save_mapping
from repro.memory import AccessTrace, ParallelMemorySystem
from repro.serve.batching import POLICIES
from repro.serve.config import TRAFFIC, ConfigError, EngineConfig, resolve_faults
from repro.serve.engine import REPAIR_MODES
from repro.serve.request import ADMISSION_POLICIES
from repro.templates import LTemplate, PTemplate, STemplate
from repro.trees import CompleteBinaryTree

__all__ = ["main"]


def _add_mapping_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--levels", type=int, required=True, help="tree levels H")
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--color", metavar="N,K", help="COLOR(T, N, k) parameters")
    kind.add_argument("--labeltree", type=int, metavar="M", help="LABEL-TREE modules")
    kind.add_argument("--modulo", type=int, metavar="M", help="modulo baseline")
    kind.add_argument("--random", type=int, metavar="M", help="random baseline")


def _build_mapping(args) -> TreeMapping:
    tree = CompleteBinaryTree(args.levels)
    if args.color:
        try:
            n_str, k_str = args.color.split(",")
            N, k = int(n_str), int(k_str)
        except ValueError as exc:
            raise SystemExit(f"--color expects 'N,k', got {args.color!r}") from exc
        return ColorMapping(tree, N=N, k=k)
    if args.labeltree:
        return LabelTreeMapping(tree, args.labeltree)
    if args.modulo:
        return ModuloMapping(tree, args.modulo)
    return RandomMapping(tree, args.random, seed=0)


def cmd_build(args) -> int:
    mapping = _build_mapping(args)
    path = save_mapping(mapping, args.out)
    print(f"saved {type(mapping).__name__} (M={mapping.num_modules}, "
          f"H={args.levels}) to {path}")
    return 0


def cmd_info(args) -> int:
    mapping = load_mapping(args.mapping)
    print(f"{mapping.source}: M={mapping.num_modules}, "
          f"levels={mapping.tree.num_levels}, nodes={mapping.tree.num_nodes}")
    print(f"colors used: {mapping.colors_used()}")
    print(load_report(mapping))
    print("\ntop of the tree (module per node):")
    print(render_coloring(mapping, max_levels=min(5, mapping.tree.num_levels)))
    return 0


def cmd_verify(args) -> int:
    mapping = load_mapping(args.mapping)
    checks = []
    if args.subtree:
        checks.append(("S", STemplate(args.subtree)))
    if args.path:
        checks.append(("P", PTemplate(args.path)))
    if args.level:
        checks.append(("L", LTemplate(args.level)))
    if not checks:
        raise SystemExit("nothing to verify: pass --subtree/--path/--level")
    worst_overall = 0
    for name, family in checks:
        if not family.admits(mapping.tree):
            print(f"{name}({family.size}): no instances in this tree, skipped")
            continue
        worst = family_cost(mapping, family)
        worst_overall = max(worst_overall, worst)
        flag = "conflict-free" if worst == 0 else f"max {worst} conflicts"
        print(f"{name}({family.size}): {family.count(mapping.tree)} instances, {flag}")
    return 0 if worst_overall == 0 else 2


def cmd_trace(args) -> int:
    from repro.apps import level_sweep_trace
    from repro.bench.workloads import heap_workload, range_query_workload

    tree = CompleteBinaryTree(args.levels)
    if args.workload == "heap":
        trace = heap_workload(tree, ops=args.ops, seed=args.seed)
    elif args.workload == "range-query":
        trace = range_query_workload(tree, queries=args.ops, seed=args.seed)
    else:
        trace = level_sweep_trace(tree, window=max(2, args.ops))
    path = trace.save(args.out)
    print(f"saved {args.workload} trace ({len(trace)} accesses, "
          f"{trace.total_items} items) to {path}")
    return 0


def _load_trace(path, num_nodes: int | None = None) -> AccessTrace:
    """Read a saved trace; a malformed one, or one naming a node past a tree
    of ``num_nodes``, is a one-line error (exit 2), not a traceback."""
    try:
        trace = AccessTrace.load(path)
        largest = max((int(nodes.max()) for _, nodes in trace), default=-1)
        if num_nodes is not None and largest >= num_nodes:
            raise ValueError(
                f"names node {largest}, but the mapping's tree has "
                f"{num_nodes} nodes (ids 0..{num_nodes - 1})"
            )
    except ValueError as exc:
        print(f"pmtree: trace {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return trace


def cmd_profile(args) -> int:
    from repro.memory import profile_trace

    trace = _load_trace(args.trace)
    profile = profile_trace(trace)
    print(profile)
    print(f"mean access size: {profile.mean_access_size:.2f} "
          f"(max {profile.max_access_size})")
    print(f"hottest node: {profile.hottest_node} "
          f"({profile.hottest_count} requests)")
    print("requests per level:")
    peak = max(1, int(profile.level_histogram.max()))
    for j, count in enumerate(profile.level_histogram):
        bar = "#" * round(int(count) / peak * 40)
        print(f"  level {j:2d} |{bar:<40}| {int(count)}")
    return 0


def cmd_chart(args) -> int:
    from repro.bench.ascii_chart import render_chart
    from repro.bench.sweep import conflict_series

    mappings = [(args.mapping, load_mapping(args.mapping))]
    if args.versus:
        mappings.append((args.versus, load_mapping(args.versus)))
    sizes = [int(s) for s in args.sizes.split(",")]
    series = conflict_series(
        [(name.rsplit("/", 1)[-1], mapping) for name, mapping in mappings],
        args.kind,
        sizes,
    )
    print(render_chart(series, title=f"worst-case conflicts, {args.kind}(D)"))
    return 0


def cmd_simulate(args) -> int:
    from repro.memory import FaultSchedule, apply_faults
    from repro.obs import EventRecorder

    mapping = load_mapping(args.mapping)
    trace = _load_trace(args.trace, mapping.tree.num_nodes)
    recorder = EventRecorder() if getattr(args, "obs", None) else None
    faults = resolve_faults(args.faults) if getattr(args, "faults", None) else None
    if isinstance(faults, FaultSchedule):
        pms = ParallelMemorySystem(mapping, recorder=recorder)
        pms.attach_faults(faults)
    elif faults is not None:
        pms = apply_faults(
            mapping, faults, repair=getattr(args, "repair", "oblivious"),
            recorder=recorder,
        )
    else:
        pms = ParallelMemorySystem(mapping, recorder=recorder)
    if args.mode == "pipelined":
        stats = pms.run_trace(trace, pipelined=True)
    elif args.mode == "open-loop":
        stats = pms.run_open_loop(trace, arrival_interval=args.interval)
    else:
        stats = pms.run_trace(trace)
    print(stats)
    print(f"items/cycle: {stats.mean_parallelism:.2f}")
    if pms.dropped:
        print(f"dropped (and re-served) requests: {pms.dropped}")
    if recorder is not None:
        recorder.set_meta(mode=args.mode, trace=str(args.trace))
        path = recorder.save(args.obs)
        print(f"wrote telemetry ({len(recorder.events)} events) to {path}")
    return 0


def _config_from_args(cls, args, **extra):
    """The :class:`EngineConfig` / :class:`FleetConfig` the parsed flags
    name; a field with no flag on this command keeps its default.  A flag
    value the config rejects is a one-line error (exit 2), not a traceback
    from deep inside the build."""
    names = {f.name for f in dataclasses.fields(cls)}
    try:
        return cls(**{k: v for k, v in vars(args).items() if k in names}, **extra)
    except ConfigError as exc:
        flag = "--" + exc.field.replace("_", "-")
        print(f"pmtree: {flag} {exc.value!r}: {exc.reason}", file=sys.stderr)
        raise SystemExit(2) from None


def _load_config(cls, state_dir: Path, started_with: str):
    """Read a state dir's ``config.json``; a malformed one is a one-line
    error (exit 2), not a traceback."""
    path = state_dir / "config.json"
    if not path.exists():
        raise SystemExit(
            f"{state_dir} has no config.json — was this run started with "
            f"'{started_with}'?"
        )
    try:
        return cls.from_json(path.read_text(), source=str(path))
    except ValueError as exc:
        print(f"pmtree recover: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _finish_serve(report, recorder, obs_path) -> int:
    print(report)
    if recorder is not None:
        recorder.set_meta(mode="serve")
        path = recorder.save(obs_path)
        print(f"wrote telemetry ({len(recorder.events)} events) to {path}")
    return 0


def cmd_serve(args) -> int:
    config = _config_from_args(EngineConfig, args)
    engine, clients, recorder = config.build()
    if not args.state_dir:
        if args.crash_at is not None:
            raise SystemExit("--crash-at requires --state-dir")
        report = engine.run(clients, max_cycles=config.cycles)
        return _finish_serve(report, recorder, config.obs)

    from repro.serve import CrashPlan, DurableServer, SimulatedCrash

    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    (state_dir / "config.json").write_text(config.to_json())
    crash_plan = (
        CrashPlan(at_cycle=args.crash_at, mode=args.crash_mode)
        if args.crash_at is not None
        else None
    )
    server = DurableServer(
        engine,
        clients,
        state_dir,
        checkpoint_every=config.checkpoint_every,
        crash_plan=crash_plan,
    )
    try:
        report = server.serve(config.cycles)
    except SimulatedCrash as crash:
        print(f"crashed: {crash}")
        print(f"state dir {state_dir} holds the journal and snapshots;")
        print(f"resume with: pmtree recover --state-dir {state_dir}")
        return 9
    print(
        f"durable run: {server.checkpoints_written} checkpoints, "
        f"overhead {server.checkpoint_overhead:.1%} of wall time"
    )
    return _finish_serve(report, recorder, config.obs)


def _recover_serve(args) -> int:
    from repro.serve import DurableServer

    state_dir = Path(args.state_dir)
    config = _load_config(EngineConfig, state_dir, "pmtree serve --state-dir")
    engine, clients, recorder = config.build()
    server = DurableServer(
        engine, clients, state_dir, checkpoint_every=config.checkpoint_every
    )
    report = server.recover()
    print(
        f"recovered: replayed {server.replayed_records} journal records, "
        f"{server.checkpoints_written} new checkpoints"
    )
    return _finish_serve(report, recorder, args.obs or config.obs)


def _recover_fleet(args) -> int:
    state_dir = Path(args.fleet)
    config = _load_config(FleetConfig, state_dir, "pmtree fleet --shard-state-dir")
    coordinator, population, recorder, factory = config.build()
    supervisor = config.supervise(coordinator, factory, state_dir=state_dir)
    report = supervisor.recover(population.clients)
    print(
        f"recovered fleet from cycle boundary in {state_dir}; "
        f"health {report.health}"
    )
    return _finish_fleet(report, recorder, args.obs or config.obs)


def cmd_recover(args) -> int:
    from repro.serve import DurabilityError

    if bool(args.state_dir) == bool(args.fleet):
        raise SystemExit(
            "pass exactly one of --state-dir (durable serve run) or "
            "--fleet (supervised fleet run)"
        )
    try:
        return _recover_fleet(args) if args.fleet else _recover_serve(args)
    except DurabilityError as exc:
        # a state dir that loads but cannot be resumed: one line, exit 2
        print(f"pmtree recover: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_daemon(args) -> int:
    import asyncio

    from repro.host.daemon import ServeDaemon
    from repro.serve import DurableServer

    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    if not args.obs:
        args.obs = str(state_dir / "telemetry.jsonl")
    config = _config_from_args(EngineConfig, args, daemon=True)
    engine, clients, recorder = config.build()
    config_path = state_dir / "config.json"
    config_path.write_text(config.to_json())
    server = DurableServer(
        engine, clients, state_dir, checkpoint_every=config.checkpoint_every
    )
    daemon = ServeDaemon(
        server,
        clients[-1],  # the SubmitFeed a daemon config appends
        config=config,
        config_path=config_path,
        host=args.host,
        port=args.port,
        max_cycles=config.cycles,
        tick_interval=args.tick_interval,
        cycles_per_tick=args.cycles_per_tick,
    )
    stream = recorder.stream_to(config.obs) if recorder is not None else None
    try:
        report = asyncio.run(daemon.run())
    finally:
        if stream is not None:
            stream.close()
    print(report)
    if recorder is not None:
        print(
            f"streamed telemetry ({len(recorder.events)} buffered, "
            f"{recorder.evicted} evicted) to {config.obs}"
        )
    return 0


def _finish_fleet(report, recorder, obs_path) -> int:
    print(report)
    if recorder is not None:
        recorder.set_meta(mode="fleet")
        path = recorder.save(obs_path)
        print(f"wrote telemetry ({len(recorder.events)} events) to {path}")
    return 0


def cmd_fleet(args) -> int:
    config = _config_from_args(FleetConfig, args)
    coordinator, population, recorder, factory = config.build()
    supervised = args.shard_state_dir or config.restart_after is not None
    if not supervised:
        if args.crash_at is not None:
            raise SystemExit("--crash-at requires --shard-state-dir")
        report = coordinator.run(population.clients, config.cycles)
        return _finish_fleet(report, recorder, config.obs)

    from repro.serve import SimulatedCrash

    state_dir = Path(args.shard_state_dir) if args.shard_state_dir else None
    if state_dir is None and args.crash_at is not None:
        raise SystemExit("--crash-at requires --shard-state-dir")
    if state_dir is not None:
        state_dir.mkdir(parents=True, exist_ok=True)
        (state_dir / "config.json").write_text(config.to_json())
    supervisor = config.supervise(
        coordinator, factory, state_dir=state_dir, crash_at=args.crash_at
    )
    try:
        report = supervisor.serve(population.clients, config.cycles)
    except SimulatedCrash as crash:
        print(f"crashed: {crash}")
        print(
            f"state dir {state_dir} holds per-shard journals and fleet "
            f"snapshots;"
        )
        print(f"resume with: pmtree recover --fleet {state_dir}")
        return 9
    return _finish_fleet(report, recorder, config.obs)


def cmd_obs_record(args) -> int:
    args.obs = args.out
    return cmd_simulate(args)


def cmd_obs_report(args) -> int:
    from repro.obs.report import render_report

    print(render_report(args.artifact, width=args.width))
    return 0


def cmd_obs_diff(args) -> int:
    from repro.obs.regress import THRESHOLD_METRICS, diff_artifacts

    thresholds = {}
    for flag in THRESHOLD_METRICS:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            thresholds[flag] = value
    if not thresholds:
        thresholds = {"max-conflict-growth": 0.0, "max-p95-queue-growth": 0.0}
    report = diff_artifacts(args.base, args.new, thresholds)
    print(report)
    return 0 if report.ok else 3


def cmd_perf_record(args) -> int:
    from repro.bench.perf import SCENARIOS, run_scenario
    from repro.obs.trajectory import PerfTrajectory

    chosen = args.scenario or ["all"]
    names = sorted(SCENARIOS) if "all" in chosen else chosen
    for name in names:
        if name not in SCENARIOS:
            raise SystemExit(
                f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)} or 'all'"
            )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        artifact = run_scenario(name, repeats=args.repeats)
        path = out_dir / f"BENCH_{name}.json"
        trajectory = (
            PerfTrajectory(name) if args.fresh else PerfTrajectory.open(path, name)
        )
        trajectory.append(artifact)
        trajectory.save(path)
        t = artifact.throughput
        print(
            f"{name}: wall {t['wall_time_s']:.3f}s, "
            f"{t['cycles_per_sec']:,.0f} cycles/s, "
            f"{t['requests_per_sec']:,.0f} requests/s "
            f"(median of {artifact.repeats}) -> {path} "
            f"[{len(trajectory)} entries]"
        )
    return 0


def cmd_perf_report(args) -> int:
    from repro.obs.trajectory import PerfTrajectory

    trajectory = PerfTrajectory.load(args.trajectory)
    print(f"perf trajectory {trajectory.name!r}: {len(trajectory)} entries")
    for entry in trajectory.entries:
        t = entry.throughput
        print(
            f"  {entry.recorded_at or '?':<26} rev {entry.git_rev or '?':<10} "
            f"fp {entry.fingerprint}  wall {t.get('wall_time_s', 0.0):.3f}s  "
            f"{t.get('cycles_per_sec', 0.0):>12,.0f} cycles/s  "
            f"{t.get('requests_per_sec', 0.0):>10,.0f} requests/s"
        )
    latest = trajectory.latest()
    if latest is not None and latest.phases:
        print("latest phase table:")
        for phase, row in latest.phases.items():
            print(
                f"  {phase:<12} {row['calls']:>8} calls  "
                f"total {row['total_s']:.4f}s  self {row['self_s']:.4f}s"
            )
    return 0


def cmd_perf_diff(args) -> int:
    from repro.obs.regress import _resolve_perf, diff_perf
    from repro.obs.trajectory import PerfTrajectory

    if args.new is None:
        trajectory = PerfTrajectory.load(args.base)
        base, new = trajectory.previous(), trajectory.latest()
        if base is None:
            raise SystemExit(
                f"{args.base} has fewer than 2 entries; pass an explicit "
                f"candidate to diff against"
            )
    else:
        base, new = _resolve_perf(args.base), _resolve_perf(args.new)
    if base.fingerprint != new.fingerprint:
        print(
            f"note: config fingerprints differ ({base.fingerprint} vs "
            f"{new.fingerprint}) — the scenario was retuned between recordings"
        )
    report = diff_perf(
        base,
        new,
        max_wall_growth=args.max_wall_growth,
        max_throughput_drop=args.max_throughput_drop,
        min_wall_s=args.min_wall_s,
    )
    print(report)
    return 0 if report.ok else 3


def cmd_perf_expose(args) -> int:
    from repro.obs.metrics import MetricsRegistry

    path = Path(args.source)
    registry = MetricsRegistry()
    if path.suffix == ".jsonl":
        from repro.obs.regress import summarize

        for name, value in summarize(path).items():
            registry.gauge(name).set(value)
    else:
        from repro.obs.trajectory import PerfTrajectory

        artifact = PerfTrajectory.load(path).latest()
        scope = f"perf.{artifact.name}"
        for key, value in artifact.throughput.items():
            registry.gauge(f"{scope}.{key}").set(value)
        for phase, row in artifact.phases.items():
            registry.counter(f"{scope}.phase.{phase}.calls").inc(int(row["calls"]))
            registry.gauge(f"{scope}.phase.{phase}.total_s").set(row["total_s"])
            registry.gauge(f"{scope}.phase.{phase}.self_s").set(row["self_s"])
    print(registry.expose_text(), end="")
    return 0


def cmd_obs_export(args) -> int:
    from repro.obs import to_chrome_trace

    out = to_chrome_trace(args.artifact, args.out)
    print(f"wrote Chrome trace to {out} (open in chrome://tracing or Perfetto)")
    return 0


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """The serve-engine configuration flags shared by ``serve`` and
    ``daemon``: every :class:`EngineConfig` field except the per-command
    ``--checkpoint-every`` / ``--events-capacity``, defaults read from it."""
    parser.add_argument(
        "--levels", type=int, default=EngineConfig.levels, help="tree levels H"
    )
    parser.add_argument(
        "--modules",
        type=int,
        default=EngineConfig.modules,
        help="memory modules M (COLOR mapping)",
    )
    parser.add_argument(
        "--mapping", help="mapping .npz (overrides --levels/--modules)"
    )
    parser.add_argument(
        "--policy",
        choices=list(POLICIES),
        default=EngineConfig.policy,
    )
    parser.add_argument(
        "--traffic",
        choices=TRAFFIC,
        default=EngineConfig.traffic,
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=EngineConfig.arrival_rate,
        help="total open-loop arrivals per cycle across all clients",
    )
    parser.add_argument("--clients", type=int, default=EngineConfig.clients)
    parser.add_argument(
        "--cycles", type=int, default=EngineConfig.cycles, help="arrival window"
    )
    parser.add_argument(
        "--workload",
        default=EngineConfig.workload,
        help="template mix, kind:size=weight terms (composite:SIZExC=weight)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=EngineConfig.queue_capacity,
        help="admission bound in items",
    )
    parser.add_argument(
        "--admission",
        choices=ADMISSION_POLICIES,
        default=EngineConfig.admission,
    )
    parser.add_argument(
        "--batch-components",
        type=int,
        default=EngineConfig.batch_components,
        help="the paper's c",
    )
    parser.add_argument(
        "--deadline", type=int, default=None, help="per-request deadline in cycles"
    )
    parser.add_argument(
        "--think-time",
        type=int,
        default=EngineConfig.think_time,
        help="closed-loop think time",
    )
    parser.add_argument("--seed", type=int, default=EngineConfig.seed)
    parser.add_argument(
        "--obs", metavar="PATH", help="record cycle-level telemetry to a .jsonl artifact"
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="fault schedule: 'fail=3@50:400,slow=7:4@100:300,drop=0.02@0:600,"
        "seed=7' or '@faults.json' (static specs become open-ended windows)",
    )
    parser.add_argument(
        "--repair",
        choices=REPAIR_MODES,
        default=EngineConfig.repair,
        help="remap dead modules' nodes while they are down",
    )
    parser.add_argument(
        "--retry-timeout",
        type=int,
        default=None,
        help="cycles before an in-flight batch is aborted and retried",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=EngineConfig.max_retries,
        help="retries before degrading",
    )
    parser.add_argument(
        "--backoff-base",
        type=int,
        default=EngineConfig.backoff_base,
        help="initial retry backoff (cycles)",
    )
    parser.add_argument(
        "--backoff-cap",
        type=int,
        default=EngineConfig.backoff_cap,
        help="max retry backoff (cycles)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmtree", description="tree mappings for parallel memory systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="compute and save a mapping")
    _add_mapping_args(build)
    build.add_argument("--out", required=True, help="output .npz path")
    build.set_defaults(fn=cmd_build)

    info = sub.add_parser("info", help="inspect a saved mapping")
    info.add_argument("mapping", help="mapping .npz")
    info.set_defaults(fn=cmd_info)

    verify = sub.add_parser("verify", help="exhaustively verify a saved mapping")
    verify.add_argument("mapping", help="mapping .npz")
    verify.add_argument("--subtree", type=int, help="check S(K)")
    verify.add_argument("--path", type=int, help="check P(N)")
    verify.add_argument("--level", type=int, help="check L(K)")
    verify.set_defaults(fn=cmd_verify)

    trace = sub.add_parser("trace", help="generate a workload trace")
    trace.add_argument("workload", choices=["heap", "range-query", "scan"])
    trace.add_argument("--levels", type=int, required=True)
    trace.add_argument("--ops", type=int, default=200)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", required=True)
    trace.set_defaults(fn=cmd_trace)

    prof = sub.add_parser("profile", help="characterize a workload trace")
    prof.add_argument("trace", help="trace .npz")
    prof.set_defaults(fn=cmd_profile)

    chart = sub.add_parser("chart", help="ASCII conflict curves for a mapping")
    chart.add_argument("mapping", help="mapping .npz")
    chart.add_argument("--versus", help="second mapping .npz to overlay")
    chart.add_argument(
        "--kind", choices=["level", "subtree", "path"], default="level"
    )
    chart.add_argument(
        "--sizes", default="15,30,60,120", help="comma-separated template sizes"
    )
    chart.set_defaults(fn=cmd_chart)

    sim = sub.add_parser("simulate", help="replay a trace against a mapping")
    sim.add_argument("mapping", help="mapping .npz")
    sim.add_argument("trace", help="trace .npz")
    sim.add_argument(
        "--mode", choices=["barrier", "pipelined", "open-loop"], default="barrier"
    )
    sim.add_argument("--interval", type=int, default=2, help="open-loop arrival interval")
    sim.add_argument(
        "--obs", metavar="PATH", help="record cycle-level telemetry to a .jsonl artifact"
    )
    sim.add_argument(
        "--faults",
        metavar="SPEC",
        help="fault spec: static 'slow=3:2,failed=5', timed "
        "'fail=3@50:400,drop=0.02@0:600,seed=7', or '@faults.json'",
    )
    sim.add_argument(
        "--repair",
        choices=["oblivious", "color"],
        default="oblivious",
        help="repair mapping for statically failed modules",
    )
    sim.set_defaults(fn=cmd_simulate)

    serve = sub.add_parser(
        "serve", help="serve an online request stream with composite batching"
    )
    _add_serve_flags(serve)
    serve.add_argument(
        "--state-dir",
        metavar="DIR",
        help="durable run: write checkpoints + a write-ahead journal here "
        "(resumable with 'pmtree recover' after a crash)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=EngineConfig.checkpoint_every,
        help="cycles between checkpoints (with --state-dir)",
    )
    serve.add_argument(
        "--crash-at",
        type=int,
        default=None,
        help="crash harness: kill the run at this cycle (exit code 9)",
    )
    serve.add_argument(
        "--crash-mode",
        choices=["instant", "mid_checkpoint", "torn_journal"],
        default="instant",
        help="what the simulated crash leaves behind",
    )
    serve.set_defaults(fn=cmd_serve)

    daemon = sub.add_parser(
        "daemon",
        help="host a durable serving engine long-lived behind an HTTP "
        "control plane (submit/status/metrics/policy/events; SIGTERM "
        "writes a final checkpoint for 'pmtree recover')",
    )
    _add_serve_flags(daemon)
    daemon.add_argument(
        "--state-dir",
        metavar="DIR",
        required=True,
        help="durable state: checkpoints, journal and config.json live here",
    )
    daemon.add_argument(
        "--checkpoint-every",
        type=int,
        default=EngineConfig.checkpoint_every,
        help="cycles between checkpoints",
    )
    daemon.add_argument(
        "--host", default="127.0.0.1", help="control-plane bind address"
    )
    daemon.add_argument(
        "--port",
        type=int,
        default=0,
        help="control-plane port (0 = pick a free one, printed at start)",
    )
    daemon.add_argument(
        "--tick-interval",
        type=float,
        default=0.01,
        help="seconds yielded to the control plane between pump bursts",
    )
    daemon.add_argument(
        "--cycles-per-tick",
        type=int,
        default=25,
        help="engine cycles advanced per pump burst",
    )
    daemon.add_argument(
        "--events-capacity",
        type=int,
        default=65536,
        help="ring-buffer bound on the in-memory event buffer "
        "(live sinks and metrics see everything regardless)",
    )
    daemon.set_defaults(fn=cmd_daemon)

    recover = sub.add_parser(
        "recover",
        help="resume a crashed 'serve --state-dir' or "
        "'fleet --shard-state-dir' run to completion",
    )
    recover.add_argument(
        "--state-dir", metavar="DIR", help="durable serve run state dir"
    )
    recover.add_argument(
        "--fleet",
        metavar="DIR",
        help="supervised fleet state dir (from 'fleet --shard-state-dir')",
    )
    recover.add_argument(
        "--obs",
        metavar="PATH",
        help="override the telemetry artifact path from the original run",
    )
    recover.set_defaults(fn=cmd_recover)

    fleet = sub.add_parser(
        "fleet",
        help="serve a multi-tenant stream across N engine shards with "
        "routing, quotas and shard-loss failover",
    )
    fleet.add_argument("--shards", type=int, default=FleetConfig.shards, help="engine shards N")
    fleet.add_argument(
        "--router",
        choices=list(ROUTERS),
        default=FleetConfig.router,
        help="request placement strategy",
    )
    fleet.add_argument("--levels", type=int, default=FleetConfig.levels, help="tree levels H")
    fleet.add_argument(
        "--modules", type=int, default=FleetConfig.modules, help="modules M per shard (COLOR)"
    )
    fleet.add_argument(
        "--policy",
        choices=list(POLICIES),
        default=FleetConfig.policy,
    )
    fleet.add_argument("--cycles", type=int, default=FleetConfig.cycles, help="arrival window")
    fleet.add_argument(
        "--arrival-rate",
        type=float,
        default=FleetConfig.arrival_rate,
        help="total arrivals per cycle across the whole tenant population",
    )
    fleet.add_argument(
        "--workload",
        default=FleetConfig.workload,
        help="template families cycled across tenants (kind:size=weight terms)",
    )
    fleet.add_argument(
        "--tenants", type=int, default=FleetConfig.tenants, help="tenant population size"
    )
    fleet.add_argument(
        "--tenant-alpha",
        type=float,
        default=FleetConfig.tenant_alpha,
        help="Zipf exponent for the heavy-tailed tenant rate split",
    )
    fleet.add_argument(
        "--quota",
        type=int,
        default=None,
        help="max outstanding requests per tenant (fleet admission)",
    )
    fleet.add_argument(
        "--gold-every",
        type=int,
        default=FleetConfig.gold_every,
        help="promote every k-th tenant to the gold SLO class (0 = none)",
    )
    fleet.add_argument(
        "--gold-deadline",
        type=int,
        default=FleetConfig.gold_deadline,
        help="gold-class completion deadline in cycles",
    )
    fleet.add_argument(
        "--gold-weight",
        type=float,
        default=FleetConfig.gold_weight,
        help="gold-class admission weight (bronze is 1)",
    )
    fleet.add_argument(
        "--kill-shard-at",
        action="append",
        metavar="SHARD@CYCLE",
        help="kill a shard mid-run (repeatable; bare CYCLE kills shard 0)",
    )
    fleet.add_argument(
        "--queue-capacity",
        type=int,
        default=FleetConfig.queue_capacity,
        help="per-shard admission bound",
    )
    fleet.add_argument(
        "--admission",
        choices=ADMISSION_POLICIES,
        default=FleetConfig.admission,
    )
    fleet.add_argument(
        "--batch-components",
        type=int,
        default=FleetConfig.batch_components,
        help="the paper's c",
    )
    fleet.add_argument("--seed", type=int, default=FleetConfig.seed)
    fleet.add_argument(
        "--faults",
        metavar="SPEC",
        help="per-shard fault schedules fanned out from one seeded spec "
        "(same windows, independent drop lotteries)",
    )
    fleet.add_argument(
        "--repair",
        choices=REPAIR_MODES,
        default=FleetConfig.repair,
        help="per-shard repair mode for dead modules",
    )
    fleet.add_argument(
        "--retry-timeout",
        type=int,
        default=None,
        help="per-shard batch abort threshold in cycles",
    )
    fleet.add_argument(
        "--max-retries",
        type=int,
        default=FleetConfig.max_retries,
        help="retries before degrading",
    )
    fleet.add_argument(
        "--obs", metavar="PATH", help="record fleet routing telemetry to .jsonl"
    )
    fleet.add_argument(
        "--restart-after",
        type=int,
        default=None,
        help="self-heal: restart a dead shard this many cycles after its "
        "death (omitted = pure failover)",
    )
    fleet.add_argument(
        "--restart-budget",
        type=int,
        default=FleetConfig.restart_budget,
        help="max restart attempts per shard (capped exponential backoff)",
    )
    fleet.add_argument(
        "--shard-state-dir",
        metavar="DIR",
        help="durable fleet: per-shard checkpoints + journals and fleet "
        "snapshots here (resumable with 'pmtree recover --fleet')",
    )
    fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=FleetConfig.checkpoint_every,
        help="fleet cycles between checkpoints (with --shard-state-dir)",
    )
    fleet.add_argument(
        "--crash-at",
        type=int,
        default=None,
        help="crash harness: kill the whole fleet at this cycle (exit 9)",
    )
    fleet.set_defaults(fn=cmd_fleet)

    obs = sub.add_parser("obs", help="telemetry: record / report / diff / export")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    rec = obs_sub.add_parser("record", help="simulate with telemetry enabled")
    rec.add_argument("mapping", help="mapping .npz")
    rec.add_argument("trace", help="trace .npz")
    rec.add_argument("--out", required=True, help="telemetry .jsonl path")
    rec.add_argument(
        "--mode", choices=["barrier", "pipelined", "open-loop"], default="barrier"
    )
    rec.add_argument("--interval", type=int, default=2, help="open-loop arrival interval")
    rec.set_defaults(fn=cmd_obs_record)

    rep = obs_sub.add_parser("report", help="render utilization/conflict/queue views")
    rep.add_argument("artifact", help="telemetry .jsonl")
    rep.add_argument("--width", type=int, default=60, help="chart width in columns")
    rep.set_defaults(fn=cmd_obs_report)

    diff = obs_sub.add_parser("diff", help="gate a candidate artifact on a baseline")
    diff.add_argument("base", help="baseline telemetry .jsonl")
    diff.add_argument("new", help="candidate telemetry .jsonl")
    diff.add_argument("--max-conflict-growth", type=float, default=None,
                      help="allowed relative growth in total conflicts (0 = none)")
    diff.add_argument("--max-p95-queue-growth", type=float, default=None,
                      help="allowed relative growth in p95 queue depth")
    diff.add_argument("--max-cycle-growth", type=float, default=None,
                      help="allowed relative growth in recorded span cycles")
    diff.add_argument("--max-stall-growth", type=float, default=None,
                      help="allowed relative growth in stall events")
    diff.set_defaults(fn=cmd_obs_diff)

    exp = obs_sub.add_parser("export", help="convert an artifact to Chrome-trace JSON")
    exp.add_argument("artifact", help="telemetry .jsonl")
    exp.add_argument("--out", required=True, help="Chrome-trace .json path")
    exp.set_defaults(fn=cmd_obs_export)

    perf = sub.add_parser(
        "perf", help="wall-clock perf: record / report / diff / expose"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    prec = perf_sub.add_parser(
        "record", help="profile the scenario matrix into BENCH_<name>.json"
    )
    prec.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="scenario name (repeatable) or 'all'; default all",
    )
    prec.add_argument(
        "--repeats", type=int, default=3, help="repeats per scenario (median taken)"
    )
    prec.add_argument(
        "--out-dir", default="benchmarks", help="directory for BENCH_<name>.json"
    )
    prec.add_argument(
        "--fresh",
        action="store_true",
        help="write a one-entry trajectory instead of appending (CI candidates)",
    )
    prec.set_defaults(fn=cmd_perf_record)

    prep = perf_sub.add_parser("report", help="render a perf trajectory")
    prep.add_argument("trajectory", help="BENCH_<name>.json")
    prep.set_defaults(fn=cmd_perf_report)

    pdiff = perf_sub.add_parser(
        "diff", help="gate a candidate recording on a baseline (exit 3 on fail)"
    )
    pdiff.add_argument("base", help="baseline BENCH_<name>.json (latest entry)")
    pdiff.add_argument(
        "new",
        nargs="?",
        default=None,
        help="candidate recording; omitted = base's last two entries",
    )
    pdiff.add_argument(
        "--max-wall-growth",
        type=float,
        default=0.5,
        help="allowed relative wall-time growth (0.5 = 50%%)",
    )
    pdiff.add_argument(
        "--max-throughput-drop",
        type=float,
        default=0.5,
        help="allowed relative throughput decline",
    )
    pdiff.add_argument(
        "--min-wall-s",
        type=float,
        default=0.001,
        help="skip the gate when the baseline wall clock is below this",
    )
    pdiff.set_defaults(fn=cmd_perf_diff)

    pexp = perf_sub.add_parser(
        "expose", help="Prometheus-style text from a perf trajectory or .jsonl"
    )
    pexp.add_argument(
        "source", help="BENCH_<name>.json trajectory or telemetry .jsonl"
    )
    pexp.set_defaults(fn=cmd_perf_expose)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
