"""The e2e benchmark's five workloads: set-up, timed phase, checks, digest.

Run as a script, this module is one benchmark repeat in a fresh process::

    PYTHONPATH=src python benchmarks/e2e/workloads.py '{"workload": "serve_light", ...}'

It prints one JSON result line and exits 0, or 3 when a correctness check
failed.  ``run.py`` launches these children one after another; tests call
:func:`run_repeat` in-process.

Set-up time runs from the child's first statement (the line below) to the
first timed call, minus input-trace generation.  The timed phase is the
host loop alone; every check and digest runs after it.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

__all__ = ["CHECK_FAILED", "MODEL_METRICS", "PINNED_DIGESTS", "WORKLOADS", "Workload", "run_repeat"]

#: exit code of a child whose correctness checks failed
CHECK_FAILED = 3


@dataclass(frozen=True)
class Workload:
    """One workload: its default seed, its runner, the nominal seconds of one
    full-size timed phase (on a 2-CPU Xeon sandbox; ``--seconds`` divides by
    it) and its full and ``--quick`` parameters."""

    name: str
    seed: int
    run: Callable
    timed_s: float
    full: dict
    quick: dict


class Repeat:
    """Timing state of one repeat: set-up, timed phase and per-step samples."""

    def __init__(self, seed: int, params: dict, work_dir: Path, tracer=None):
        self.seed = seed
        self.params = params
        self.work_dir = work_dir
        self.tracer = tracer
        self.trace_gen_s = 0.0
        self.color_build_s = 0.0
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.step_ns: list[int] = []
        self.layers: dict | None = None
        self.table: list[dict] | None = None
        self._dirs: list[Path] = []

    def generate(self, make):
        """Build an input trace; its time is excluded from set-up."""
        start = time.perf_counter()
        out = make()
        self.trace_gen_s += time.perf_counter() - start
        return out

    def build_colors(self, mapping) -> None:
        """Build a mapping's color table now, so no timed call pays for it."""
        start = time.perf_counter()
        mapping.color_array()
        self.color_build_s += time.perf_counter() - start

    def state_dir(self) -> Path:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix="state-", dir=self.work_dir))
        self._dirs.append(path)
        return path

    def time_steps(self, driver) -> None:
        """Record host nanoseconds per ``driver.tick()`` (the serving step).

        A traced run skips this: its ``host.tick`` span times every tick.
        """
        if self.tracer is not None:
            return
        tick = driver.tick
        samples = self.step_ns
        clock = time.perf_counter_ns

        def timed_tick():
            start = clock()
            stepped = tick()
            samples.append(clock() - start)
            return stepped

        driver.tick = timed_tick

    def timed(self, fn):
        """Run the timed phase; set-up ends here."""
        self.setup_s = time.perf_counter() - _T0 - self.trace_gen_s
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall_s = time.perf_counter() - start
            if tracer is not None:
                from trace import layer_metrics

                self.layers = layer_metrics(tracer, self.wall_s)
                self.table = tracer.table(self.wall_s)
                tracer.uninstall()

    def cleanup(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)


def _sha(array) -> str:
    return hashlib.sha256(np.asarray(array, dtype=np.int64).tobytes()).hexdigest()


def _percentiles(values) -> tuple[float, float]:
    p50, p99 = np.percentile(np.asarray(values, dtype=np.float64), [50, 99])
    return float(p50), float(p99)


def _file_bytes(root: Path, pattern: str) -> int:
    return sum(path.stat().st_size for path in root.glob(pattern))


# -- replay ----------------------------------------------------------------------


def _replay(repeat: Repeat, interconnect: str) -> dict:
    from repro.bench.workloads import heap_workload, range_query_workload
    from repro.core import ColorMapping, LabelTreeMapping
    from repro.memory import Crossbar, MultiBus, ParallelMemorySystem
    from repro.trees import CompleteBinaryTree

    p = repeat.params
    tree = CompleteBinaryTree(p["levels"])

    def make_trace():
        trace = heap_workload(tree, ops=p["ops"], seed=repeat.seed)
        trace.extend(range_query_workload(tree, queries=p["queries"], seed=repeat.seed))
        return trace

    trace = repeat.generate(make_trace)
    if interconnect == "crossbar":
        mapping = ColorMapping.for_modules(tree, p["modules"])
        system = ParallelMemorySystem(mapping, interconnect=Crossbar())
    else:
        mapping = LabelTreeMapping(tree, p["modules"])
        system = ParallelMemorySystem(
            mapping, interconnect=MultiBus(p["buses"]), module_latency=p["latency"]
        )
    repeat.build_colors(mapping)
    accesses = list(trace)

    def loop():
        access = system.access
        clock = time.perf_counter_ns
        samples = repeat.step_ns
        cycles, conflicts, errors = [], [], []
        for label, nodes in accesses:
            start = clock()
            try:
                result = access(nodes, label=label)
            except Exception as exc:  # a raised access is a failed operation
                errors.append(f"{label}: {exc!r}")
                cycles.append(-1)
                conflicts.append(-1)
                continue
            finally:
                samples.append(clock() - start)
            cycles.append(result.cycles)
            conflicts.append(result.conflicts)
        return cycles, conflicts, errors

    cycles, conflicts, errors = repeat.timed(loop)

    failures = errors[:3]
    colors = mapping.color_array()
    for i, (label, nodes) in enumerate(accesses):
        if cycles[i] < 0:
            continue
        counts = np.bincount(colors[nodes], minlength=mapping.num_modules)
        expected_conflicts = int(counts.max()) - 1
        if conflicts[i] != expected_conflicts:
            failures.append(
                f"access {i} ({label}): conflicts {conflicts[i]} != "
                f"{expected_conflicts} from the color table"
            )
        elif interconnect == "crossbar":
            if cycles[i] != expected_conflicts + 1:
                failures.append(
                    f"access {i} ({label}): {cycles[i]} cycles != conflicts + 1 "
                    f"= {expected_conflicts + 1}"
                )
        else:
            floor = max(
                p["latency"] * int(counts.max()),
                math.ceil(nodes.size / p["buses"]) + p["latency"] - 1,
            )
            if cycles[i] < floor:
                failures.append(
                    f"access {i} ({label}): {cycles[i]} cycles < the bus/module "
                    f"floor {floor}"
                )
        if len(failures) >= 10:
            break
    items = trace.total_items
    served = sum(module.served for module in system.modules)
    if served != items:
        failures.append(f"modules served {served} items, trace holds {items}")

    n = len(accesses)
    good = [c for c in cycles if c >= 0]
    sim_cycles = int(sum(good))
    p50, p99 = _percentiles(good) if good else (0.0, 0.0)
    return {
        "attempted": n,
        "failed": len(errors),
        "items": items,
        "failures": failures,
        "sim": {
            "sim_cycles": sim_cycles,
            "conflicts_per_access": sum(c for c in conflicts if c >= 0) / n,
            "rounds_per_request": sim_cycles / n,
            "sojourn_p50_cycles": p50,
            "sojourn_p99_cycles": p99,
        },
        "digest_fields": {
            "accesses": n,
            "items": items,
            "cycles_sha256": _sha(cycles),
            "conflicts_sha256": _sha(conflicts),
            "module_served": [module.served for module in system.modules],
        },
        "model": {},
    }


def replay_barrier(repeat: Repeat) -> dict:
    return _replay(repeat, "crossbar")


def replay_bus(repeat: Repeat) -> dict:
    return _replay(repeat, "multibus")


# -- serving ---------------------------------------------------------------------


def _fault_spec(cycles: int, seed: int) -> str:
    """Fail, slow, fail and drop windows at fixed fractions of the run."""
    n = cycles
    return (
        f"fail=3@{n // 10}:{n // 5},slow=7:3@{n // 4}:{n // 2},"
        f"fail=11@{n // 2}:{3 * n // 5},drop=0.02@{7 * n // 10}:{4 * n // 5},"
        f"seed={seed}"
    )


def _report_fields(report) -> dict:
    from repro.serve.slo import WALL_CLOCK_FIELDS

    return {k: v for k, v in asdict(report).items() if k not in WALL_CLOCK_FIELDS}


#: per-layer metrics read from a workload's own reports, not from the
#: tracer; a workload without the layer reports 0
MODEL_METRICS: tuple[str, ...] = (
    "serve.admission.wait_p50_cycles",
    "serve.admission.wait_p99_cycles",
    "serve.batching.requests_per_batch",
    "serve.batching.conflicts_per_batch",
    "serve.retry.timeouts",
    "serve.retry.retries",
    "serve.durability.journal.bytes",
    "fleet.rerouted",
    "fleet.restarts",
    "fleet.availability",
)


def _tracker_model(tracker) -> dict:
    """Per-layer modelled numbers of a serving tracker."""
    from repro.memory import latency_summary

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    wait = latency_summary(tracker.waits) if tracker.waits else {"p50": 0.0, "p99": 0.0}
    return {
        "serve.admission.wait_p50_cycles": wait["p50"],
        "serve.admission.wait_p99_cycles": wait["p99"],
        "serve.batching.requests_per_batch": mean(tracker.batch_sizes),
        "serve.batching.conflicts_per_batch": mean(tracker.batch_conflicts),
        "serve.retry.timeouts": tracker.timeouts,
        "serve.retry.retries": tracker.retries,
    }


def serve(repeat: Repeat) -> dict:
    from repro.core import ColorMapping
    from repro.host import Driver
    from repro.memory import FaultSchedule, ParallelMemorySystem
    from repro.serve import (
        DurableServer,
        PoissonClient,
        ServeEngine,
        TemplateMix,
        batch_conflict_bound,
        journal_accounting,
        spawn_seeds,
    )
    from repro.trees import CompleteBinaryTree

    p = repeat.params
    tree = CompleteBinaryTree(p["levels"])
    mapping = ColorMapping.for_modules(tree, p["modules"])
    repeat.build_colors(mapping)
    system = ParallelMemorySystem(mapping)
    if p.get("faults"):
        system.attach_faults(FaultSchedule.parse(_fault_spec(p["cycles"], repeat.seed)))
    engine = ServeEngine(
        system,
        policy=p["policy"],
        repair=p.get("repair", "none"),
        retry_timeout=p.get("retry_timeout"),
    )
    mix = TemplateMix.parse(tree, p["mix"])
    seeds = spawn_seeds(repeat.seed, p["clients"])
    clients = [
        PoissonClient(i, mix, p["rate"] / p["clients"], seed=seeds[i])
        for i in range(p["clients"])
    ]
    server = None
    if p.get("checkpoint_every"):
        state_dir = repeat.state_dir()
        server = DurableServer(
            engine, clients, state_dir, checkpoint_every=p["checkpoint_every"]
        )
        repeat.time_steps(server.driver)
        report = repeat.timed(lambda: server.serve(p["cycles"]))
    else:
        driver = Driver(engine)
        repeat.time_steps(driver)
        report = repeat.timed(lambda: driver.run(clients, p["cycles"]))

    failures = []
    if report.completed + report.shed != report.arrivals:
        failures.append(
            f"completed {report.completed} + shed {report.shed} != "
            f"arrivals {report.arrivals}"
        )
    if p.get("check_batch_bound"):
        policy = engine.policy
        bound = batch_conflict_bound(policy.max_components, policy.bound_k)
        if report.max_batch_conflicts > bound:
            failures.append(
                f"a batch had {report.max_batch_conflicts} conflicts > c-1+k = {bound}"
            )
    digest_fields = {"report": _report_fields(report)}
    model = _tracker_model(engine.tracker)
    if server is not None:
        ledger = journal_accounting(server.journal.records)
        if ledger["double_retired"] or ledger["lost"]:
            failures.append(
                f"journal does not balance: double-retired "
                f"{sorted(ledger['double_retired'])[:5]}, lost {sorted(ledger['lost'])[:5]}"
            )
        if len(ledger["retired"]) != report.completed:
            failures.append(
                f"journal retired {len(ledger['retired'])} requests, report "
                f"completed {report.completed}"
            )
        digest_fields["journal_records"] = len(server.journal.records)
        model["serve.durability.journal.bytes"] = _file_bytes(state_dir, "journal.jsonl")

    latency = report.latency or {"p50": 0.0, "p99": 0.0}
    return {
        "attempted": report.arrivals,
        "failed": report.shed,
        "items": report.completed_items,
        "failures": failures,
        "sim": {
            "sim_cycles": report.cycles,
            "conflicts_per_access": report.mean_batch_conflicts,
            "rounds_per_request": report.mean_rounds_per_request,
            "sojourn_p50_cycles": latency["p50"],
            "sojourn_p99_cycles": latency["p99"],
        },
        "digest_fields": digest_fields,
        "model": model,
    }


# -- fleet -----------------------------------------------------------------------


def fleet_selfheal(repeat: Repeat) -> dict:
    from repro.core import ColorMapping
    from repro.fleet import (
        FleetCoordinator,
        FleetSupervisor,
        heavy_tailed_tenants,
    )
    from repro.memory import ParallelMemorySystem
    from repro.serve import ServeEngine, SLOTracker
    from repro.serve.slo import WALL_CLOCK_FIELDS
    from repro.trees import CompleteBinaryTree

    p = repeat.params
    n = p["cycles"]
    tree = CompleteBinaryTree(p["levels"])
    # the shards are replicas: one color table serves every shard's system
    mapping = ColorMapping.for_modules(tree, p["modules"])
    repeat.build_colors(mapping)

    def factory(shard: int) -> ServeEngine:
        return ServeEngine(ParallelMemorySystem(mapping), policy=p["policy"])

    population = heavy_tailed_tenants(
        tree, p["tenants"], p["mix"], p["rate"], seed=repeat.seed,
        gold_every=p["gold_every"],
    )
    coordinator = FleetCoordinator(
        [factory(i) for i in range(p["shards"])],
        router=p["router"],
        directory=population.directory,
        kills=[f"1@{n // 4}", f"2@{n // 2}"],
    )
    state_dir = repeat.state_dir()
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=state_dir,
        checkpoint_every=p["checkpoint_every"],
        restart_after=n // 10,
    )
    repeat.time_steps(supervisor.driver)
    report = repeat.timed(lambda: supervisor.serve(population.clients, n))

    failures = []
    settled = report.completed + report.quota_shed + report.shard_shed + report.fleet_shed
    if settled != report.arrivals:
        failures.append(
            f"completed {report.completed} + quota-shed {report.quota_shed} + "
            f"shard-shed {report.shard_shed} + fleet-shed {report.fleet_shed} != "
            f"arrivals {report.arrivals}"
        )
    if not {1, 2} <= set(report.rejoined):
        failures.append(f"killed shards 1 and 2 did not both rejoin: {report.rejoined}")

    merged = SLOTracker.merged(engine.tracker for engine in coordinator.shards)
    fields = asdict(report)
    fields.pop("wall_time_s")
    fields["shard_reports"] = [
        {k: v for k, v in shard.items() if k not in WALL_CLOCK_FIELDS}
        for shard in fields["shard_reports"]
    ]
    model = _tracker_model(merged)
    model.update(
        {
            "serve.durability.journal.bytes": _file_bytes(state_dir, "shard-*/journal.jsonl"),
            "fleet.rerouted": report.rerouted,
            "fleet.restarts": report.restarts,
            "fleet.availability": report.availability,
        }
    )
    latency = report.latency or {"p50": 0.0, "p99": 0.0}
    batches = merged.batch_conflicts
    return {
        "attempted": report.arrivals,
        "failed": report.quota_shed + report.shard_shed + report.fleet_shed,
        "items": report.completed_items,
        "failures": failures,
        "sim": {
            "sim_cycles": report.cycles,
            "conflicts_per_access": sum(batches) / len(batches) if batches else 0.0,
            "rounds_per_request": (
                sum(merged.batch_rounds) / merged.completed if merged.completed else 0.0
            ),
            "sojourn_p50_cycles": latency["p50"],
            "sojourn_p99_cycles": latency["p99"],
        },
        "digest_fields": {"report": fields},
        "model": model,
    }


# -- the workload table ------------------------------------------------------------

_REPLAY = {"levels": 14, "modules": 31}
_SERVE = {"levels": 12, "modules": 15, "clients": 2, "mix": "subtree:15,path:12,level:7"}
_QUICK_REPLAY = {"levels": 10, "ops": 600, "queries": 60}


def _workload(name, seed, run, timed_s, full, quick) -> Workload:
    return Workload(name, seed, run, timed_s, full, {**full, **quick})


#: why each workload is here: README.md and BENCHMARK.json
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _workload(
            "replay_barrier", 7, replay_barrier, 2.7,
            {**_REPLAY, "ops": 16000, "queries": 1600},
            _QUICK_REPLAY,
        ),
        _workload(
            "replay_bus", 7, replay_bus, 2.4,
            {**_REPLAY, "ops": 12000, "queries": 1200, "buses": 8, "latency": 2},
            _QUICK_REPLAY,
        ),
        _workload(
            "serve_light", 3, serve, 4.0,
            {
                **_SERVE, "policy": "greedy-pack", "rate": 0.25, "cycles": 120000,
                "check_batch_bound": True,
            },
            {"cycles": 4000},
        ),
        _workload(
            "serve_durable_faults", 3, serve, 4.5,
            {
                **_SERVE, "policy": "load-aware", "rate": 0.4, "cycles": 12000,
                "mix": _SERVE["mix"] + ",composite:24x3", "faults": True,
                "repair": "color", "retry_timeout": 32, "checkpoint_every": 50,
            },
            {"cycles": 1500},
        ),
        _workload(
            "fleet_selfheal", 3, fleet_selfheal, 5.8,
            {
                "levels": 11, "modules": 15, "shards": 4, "policy": "greedy-pack",
                "router": "affinity", "tenants": 12, "rate": 1.6, "gold_every": 4,
                "mix": "subtree:15,path:11,level:7", "cycles": 5000,
                "checkpoint_every": 50,
            },
            {"cycles": 800},
        ),
    )
}

#: ``sim_digest`` of each workload at its default seed, by ``(name,
#: quick)``.  A change that leaves simulated behaviour alone keeps every one
#: of these; the quick pins are checked by every test run.
PINNED_DIGESTS: dict[tuple[str, bool], str] = {
    ("replay_barrier", False): "630b58f52df8f303bbfff194a0ebeb2e4edcf6a3f1809c25b459e15fef811cda",
    ("replay_bus", False): "4037c7f3566f21765f630cd26ac4e64f9da1e49243501dd5751eb8f026aa1b2a",
    ("serve_light", False): "766ff553309d54a47c3fac65dda23c31c21b84cf1242a733cfbddf277e674ed9",
    ("serve_durable_faults", False): (
        "93881aecfb43a9f8fbebfc77c8cc0bda023c480796b65e47c8c1bc8c7fc9f6bc"
    ),
    ("fleet_selfheal", False): "879691604b07e599479da7db38d6e200052cc41f7224fbef995944750774e7e9",
    ("replay_barrier", True): "d8646b5efb372e37552bd21213fde2674e09710652bb9590f8e705e3837d9add",
    ("replay_bus", True): "f59904a436f47793f9a2eb6b64e5d2270ea1e73e37e521fe6b3bb5782b37fd24",
    ("serve_light", True): "7cc7beb64392befa8b0613fc4c33e417557d0ccd6fde767d3af96489f6fb3eb8",
    ("serve_durable_faults", True): (
        "e08cae380d90bdaf8b4f0b321c62f9054ae915e02bc1dbe6ab593bcc81bbdeb7"
    ),
    ("fleet_selfheal", True): "09da1571f3cccbb9713af36b38911875473ccfcaa8583441034a765c3e90bd25",
}


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def run_repeat(
    name: str,
    seed: int | None = None,
    *,
    quick: bool = False,
    work_dir: Path | str,
    trace_dir: Path | str | None = None,
) -> dict:
    """Run one repeat of a workload and return its result record.

    State directories go under ``work_dir`` and are removed afterwards.
    """
    workload = WORKLOADS[name]
    seed = workload.seed if seed is None else seed
    params = workload.quick if quick else workload.full
    tracer = None
    if trace_dir is not None:
        from trace import Tracer, install

        tracer = Tracer()
        install(tracer)
    repeat = Repeat(seed, params, Path(work_dir), tracer=tracer)
    try:
        outcome = workload.run(repeat)
    finally:
        if tracer is not None:
            tracer.uninstall()
        repeat.cleanup()

    sim = dict(outcome["sim"])
    sim["failed_share"] = outcome["failed"] / outcome["attempted"]
    digest = hashlib.sha256(
        json.dumps(
            {"sim": sim, "fields": outcome["digest_fields"]},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    ).hexdigest()
    failures = list(outcome["failures"])
    pinned = PINNED_DIGESTS.get((name, quick)) if seed == workload.seed else None
    if pinned is not None and digest != pinned:
        failures.append(f"sim_digest {digest} != pinned {pinned} for the default seed")
    undeclared = sorted(set(outcome["model"]) - set(MODEL_METRICS))
    if undeclared:
        raise KeyError(f"{name} reports undeclared model metrics {undeclared}")
    result = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "traced": tracer is not None,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "items": outcome["items"],
        "failures": failures,
        "sim_digest": digest,
        "host": {"setup_s": repeat.setup_s, "peak_rss_mb": _peak_rss_mb()},
        "sim": sim,
        "wall_s": repeat.wall_s,
        "step_ns": repeat.step_ns,
        "trace_gen_s": repeat.trace_gen_s,
        "color_build_s": repeat.color_build_s,
        "model": {**dict.fromkeys(MODEL_METRICS, 0), **outcome["model"]},
        "layers": None,
        "table": None,
    }
    if tracer is not None:
        layers = dict(repeat.layers)
        layers["core.color_array.build_s"] = repeat.color_build_s
        result["layers"] = layers
        result["table"] = repeat.table
        tracer.write_chrome(
            Path(trace_dir) / f"{name}.trace.json",
            {"workload": name, "seed": seed, "wall_s": repeat.wall_s},
        )
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = run_repeat(
        spec["workload"],
        spec["seed"],
        quick=spec["quick"],
        work_dir=spec["work_dir"],
        trace_dir=spec.get("trace_dir"),
    )
    print(json.dumps(result))
    return CHECK_FAILED if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
