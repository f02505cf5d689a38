"""ServeDaemon control plane: SubmitFeed, QueueSink, HTTP round-trip,
graceful shutdown and the rolling restart via ``pmtree recover``."""

import asyncio
import json

import pytest

from repro.host.daemon import QueueSink, ServeDaemon, SubmitFeed
from repro.serve import DurableServer, EngineConfig
from repro.serve.request import instance_to_json
from repro.trees import CompleteBinaryTree


def _config(state_dir, **overrides) -> EngineConfig:
    config = {
        "levels": 8,
        "modules": 7,
        "mapping": None,
        "policy": "greedy-pack",
        "traffic": "poisson",
        "arrival_rate": 0.3,
        "clients": 2,
        "cycles": 2_000,
        "workload": "subtree:7=1,path:5=1,level:4=1",
        "queue_capacity": 256,
        "admission": "block",
        "batch_components": 4,
        "deadline": None,
        "think_time": 3,
        "seed": 11,
        "obs": str(state_dir / "telemetry.jsonl"),
        "faults": None,
        "repair": "none",
        "retry_timeout": None,
        "max_retries": 3,
        "backoff_base": 1,
        "backoff_cap": 64,
        "checkpoint_every": 50,
        "events_capacity": 4096,
        "daemon": True,
    }
    config.update(overrides)
    return EngineConfig(**config)


# -- SubmitFeed ----------------------------------------------------------------


def _feed(seed=9):
    return SubmitFeed(0, CompleteBinaryTree(8), seed=seed)


def test_submit_feed_is_deterministic():
    a, b = _feed(), _feed()
    for feed in (a, b):
        feed.submit("subtree", 7, count=3)
        feed.submit("path", 5, tenant="gold")
        feed.submit("composite", 12, count=2, components=3)
    polled_a, polled_b = a.poll_tenants(0), b.poll_tenants(0)
    assert [t for _, t in polled_a] == [None] * 3 + ["gold"] + [None] * 2
    assert [instance_to_json(i) for i, _ in polled_a] == [
        instance_to_json(i) for i, _ in polled_b
    ]


def test_submit_feed_index_picks_the_exact_instance():
    feed = _feed()
    feed.submit("subtree", 7, index=2)
    feed.submit("subtree", 7, index=2)
    first, second = (instance_to_json(i) for i in feed.poll(0))
    assert first == second
    assert feed.backlog == 0
    assert feed.submitted == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "subtree", "size": 7, "count": 0},
        {"kind": "composite", "size": 12, "index": 1},
        {"kind": "level", "size": 4096},  # no such level in an 8-level tree
    ],
)
def test_submit_feed_rejects_bad_submissions(kwargs):
    with pytest.raises(ValueError):
        _feed().submit(**kwargs)


def test_submit_feed_state_round_trips_backlog_and_rng():
    a = _feed(seed=21)
    a.submit("subtree", 7, count=2)
    a.poll_tenants(0)
    a.submit("path", 5, tenant="t0")  # left pending across the checkpoint
    b = _feed(seed=99)
    b.load_state(a.state_dict())
    assert b.state_dict() == a.state_dict()
    assert b.backlog == a.backlog == 1
    # the restored RNG continues the same sample stream
    a.submit("composite", 12)
    b.submit("composite", 12)
    assert [instance_to_json(i) for i in a.poll(1)] == [
        instance_to_json(i) for i in b.poll(1)
    ]


# -- QueueSink -----------------------------------------------------------------


def test_queue_sink_fans_out_and_drops_when_full():
    sink = QueueSink(maxsize=2)
    fast, slow = sink.subscribe(), sink.subscribe()
    sink.on_event({"n": 1})
    assert fast.get_nowait() == {"n": 1}
    sink.on_event({"n": 2})
    sink.on_event({"n": 3})  # slow's queue is now full (1 and 2 unread)
    assert sink.dropped == 1
    assert fast.get_nowait() == {"n": 2}
    assert fast.get_nowait() == {"n": 3}
    assert [slow.get_nowait(), slow.get_nowait()] == [{"n": 1}, {"n": 2}]
    sink.unsubscribe(slow)
    sink.on_event({"n": 4})
    assert sink.dropped == 1  # unsubscribed queues no longer count
    sink.close()
    assert fast.get_nowait() == {"n": 4}
    assert fast.get_nowait() is None  # end-of-stream sentinel


# -- HTTP round-trip and rolling restart ---------------------------------------


async def _request(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


async def _wait_listening(daemon, task):
    for _ in range(1_000):
        if daemon._http is not None:
            return
        if task.done():
            task.result()  # surface the startup failure
        await asyncio.sleep(0.01)
    raise TimeoutError("daemon never started listening")


def _start_daemon(tmp_path, **config_overrides):
    config = _config(tmp_path, **config_overrides)
    engine, clients, recorder = config.build()
    config_path = tmp_path / "config.json"
    config_path.write_text(config.to_json())
    server = DurableServer(
        engine, clients, tmp_path, checkpoint_every=config.checkpoint_every
    )
    daemon = ServeDaemon(
        server,
        clients[-1],
        config=config,
        config_path=config_path,
        port=0,
        max_cycles=config.cycles,
        tick_interval=0.02,
        cycles_per_tick=5,
    )
    return daemon, recorder


def test_daemon_round_trip_then_rolling_restart(tmp_path):
    daemon, recorder = _start_daemon(tmp_path)

    async def scenario():
        task = asyncio.create_task(daemon.run())
        await _wait_listening(daemon, task)
        port = daemon.port

        status, body = await _request(port, "GET", "/status")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["active"] is True
        assert snapshot["policy"] == "greedy-pack"

        status, body = await _request(
            port, "POST", "/submit",
            {"kind": "subtree", "size": 7, "count": 2, "tenant": "ops"},
        )
        assert status == 200
        assert json.loads(body)["submitted"] == 2

        status, body = await _request(
            port, "POST", "/submit", {"kind": "composite", "size": 12, "index": 1}
        )
        assert status == 400  # composites cannot be submitted by index

        status, body = await _request(port, "GET", "/events?limit=3")
        assert status == 200
        events = [json.loads(line) for line in body.splitlines()]
        assert len(events) == 3
        assert all("cycle" in event for event in events)

        status, body = await _request(port, "GET", "/metrics")
        assert status == 200
        assert b"# TYPE" in body

        status, body = await _request(
            port, "POST", "/policy", {"policy": "load-aware", "deadline": 400}
        )
        assert status == 200
        applied = json.loads(body)["applied"]
        assert applied == {"policy": "load-aware", "deadline": 400}
        on_disk = json.loads((tmp_path / "config.json").read_text())
        assert on_disk["policy"] == "load-aware"
        assert on_disk["deadline"] == 400

        status, body = await _request(port, "POST", "/policy", {"nope": 1})
        assert status == 400

        status, body = await _request(port, "GET", "/missing")
        assert status == 404

        status, body = await _request(port, "POST", "/shutdown")
        assert status == 200
        report = await asyncio.wait_for(task, timeout=30)
        return report

    report = asyncio.run(scenario())
    assert report is not None
    assert daemon.server.engine.policy.name == "load-aware"
    shutdown_cycle = daemon.server.engine.cycle
    assert 0 < shutdown_cycle < 2_000  # shut down mid-run

    # rolling restart: the shutdown checkpoint covers the whole journal, so
    # recovery replays zero records and resumes the mutated engine
    config = EngineConfig.from_json((tmp_path / "config.json").read_text())
    assert daemon.config == config
    engine, clients, _ = config.build()
    assert engine.policy.name == "load-aware"
    server = DurableServer(
        engine, clients, tmp_path, checkpoint_every=config.checkpoint_every
    )
    report = server.recover()
    assert server.replayed_records == 0
    assert engine.cycle >= 2_000  # horizon reached (+ drain of in-flight work)
    assert report.cycles == engine.cycle
    assert report.completed >= 2  # the HTTP-submitted work survived recovery


def test_daemon_natural_completion_exits_without_shutdown(tmp_path):
    daemon, recorder = _start_daemon(tmp_path, cycles=40, obs=None)

    async def scenario():
        task = asyncio.create_task(daemon.run())
        await _wait_listening(daemon, task)
        # without a recorder the event stream is declined, not wedged
        status, body = await _request(daemon.port, "GET", "/events")
        assert status == 503
        return await asyncio.wait_for(task, timeout=30)

    report = asyncio.run(scenario())
    assert report is not None
    assert daemon.server.engine.cycle >= 40  # horizon + drain
    assert daemon.server.engine.active is False


BAD_POLICY_BODIES = [
    {"policy": "nope"},
    {"policy": ["fifo"]},
    {"deadline": 50, "retry_timeout": 0},
    {"policy": "load-aware", "deadline": "soon"},
    {"policy": "fifo", "retry_timeout": -3},
    [1, 2],
    5,
]


@pytest.mark.parametrize("body", BAD_POLICY_BODIES, ids=repr)
def test_a_rejected_policy_body_changes_nothing_and_serving_goes_on(tmp_path, body):
    """Every knob is checked before any is applied: a 400 leaves the
    engine, ``config.json`` and the status exactly as they were."""
    daemon, _ = _start_daemon(tmp_path, obs=None)
    config_before = (tmp_path / "config.json").read_text()

    async def scenario():
        task = asyncio.create_task(daemon.run())
        await _wait_listening(daemon, task)
        port = daemon.port
        _, before = await _request(port, "GET", "/status")
        status, _ = await _request(port, "POST", "/policy", body)
        assert status == 400
        _, after = await _request(port, "GET", "/status")
        for knob in ("policy", "deadline", "retry_timeout"):
            assert json.loads(after)[knob] == json.loads(before)[knob]
        # the engine keeps serving: its clock moves on after the rejection
        cycle = json.loads(after)["cycle"]
        for _ in range(500):
            _, now = await _request(port, "GET", "/status")
            if json.loads(now)["cycle"] > cycle:
                break
            await asyncio.sleep(0.01)
        assert json.loads(now)["cycle"] > cycle
        status, _ = await _request(port, "POST", "/shutdown")
        assert status == 200
        return await asyncio.wait_for(task, timeout=30)

    assert asyncio.run(scenario()) is not None
    engine = daemon.server.engine
    assert (engine.policy.name, engine.deadline, engine.retry_timeout) == (
        "greedy-pack", None, None,
    )
    assert (tmp_path / "config.json").read_text() == config_before
