"""``pmtree daemon``: a long-lived serving host with an HTTP control plane.

The batch commands (``pmtree serve|fleet``) run one configured workload and
exit.  :class:`ServeDaemon` instead hosts a durable engine *continuously*:
a stdlib-asyncio loop pumps the :class:`~repro.host.driver.Driver` a few
cycles at a time and, between pumps, serves an HTTP/1.1 control plane on
the same thread — so every handler runs at a cycle boundary, the only
place the engine's state is consistent.  No new runtime dependencies:
``asyncio`` + the hand-rolled request parser below are the whole server.

Endpoints (all responses JSON unless noted):

``POST /submit``
    inject template requests into the stream: body
    ``{"kind": "subtree|level|path|composite", "size": N}`` plus optional
    ``count`` (default 1), ``tenant``, ``index`` (pick the exact instance
    instead of sampling) and ``components`` (composites).  The requests
    enter through a :class:`SubmitFeed` client, i.e. through the engine's
    normal admission control — exactly like generated traffic.
``GET /status``
    cycle, active flag, arrival/completion counters, checkpoint state,
    current knob values.
``GET /metrics``
    Prometheus text exposition of the live
    :class:`~repro.obs.metrics.MetricsRegistry` (text/plain).
``POST /policy``
    mutate serving knobs mid-flight: any of ``{"policy": name}``,
    ``{"deadline": cycles|null}``, ``{"retry_timeout": cycles|null}``.
    Applied at the cycle boundary, persisted to the state dir's
    ``config.json`` (so ``pmtree recover`` rebuilds the *new* engine), and
    sealed with an immediate checkpoint — the barrier that keeps knob
    changes crash-consistent.  Requests journalled after that barrier and
    before the next checkpoint are covered by normal journal replay.
``GET /events``
    live NDJSON stream of obs events as they are recorded (a
    :class:`QueueSink` subscriber); ``?limit=N`` closes the stream after N
    events, otherwise it runs until the daemon exits.
``POST /shutdown``
    same as SIGTERM: graceful stop.

Graceful shutdown (SIGTERM/SIGINT/``POST /shutdown``) stops the pump at a
cycle boundary, writes a final checkpoint covering the whole journal, and
closes the journal — so ``pmtree recover --state-dir DIR`` performs a
rolling restart that replays **zero** journal records and resumes the run
exactly-once from the shutdown cycle.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
from collections import deque
from pathlib import Path

import numpy as np

from repro.obs.sinks import EventSink
from repro.serve.batching import make_policy
from repro.serve.clients import Client
from repro.serve.config import EngineConfig
from repro.serve.durability import DurableServer
from repro.serve.request import instance_from_json, instance_to_json
from repro.templates.composite import CompositeSampler, elementary_family

__all__ = ["ServeDaemon", "SubmitFeed", "QueueSink"]


class SubmitFeed(Client):
    """The bridge between the HTTP control plane and the arrival path.

    ``POST /submit`` pushes template instances in; the engine drains them
    via :meth:`poll_tenants` on its next cycle, so submitted work flows
    through normal admission control.  Checkpointable like every client:
    the RNG position, the submit counter and the un-polled backlog all
    round-trip through :meth:`state_dict`, so a recovered daemon resumes
    with the same pending work and the same future sample stream.
    """

    def __init__(self, client_id: int, tree, seed: int):
        super().__init__(client_id)
        self.tree = tree
        self.rng = np.random.default_rng(seed)
        self.submitted = 0
        self._incoming: deque = deque()  # (instance, tenant)

    @property
    def backlog(self) -> int:
        """Instances pushed but not yet polled by the engine."""
        return len(self._incoming)

    def submit(
        self,
        kind: str,
        size: int,
        count: int = 1,
        tenant: str | None = None,
        index: int | None = None,
        components: int = 2,
    ) -> int:
        """Queue ``count`` instances of ``kind``/``size`` for the next cycle.

        Elementary kinds sample uniformly from the family (or take the
        exact ``index``-th instance); composites draw ``components``
        disjoint elementary pieces totalling ~``size`` nodes.  Returns the
        number queued.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        instances = []
        if kind == "composite":
            if index is not None:
                raise ValueError("composite submissions cannot use index=")
            sampler = CompositeSampler(self.tree)
            for _ in range(count):
                instances.append(sampler.sample(components, size, self.rng))
        else:
            family = elementary_family(kind, size)
            if not family.admits(self.tree):
                raise ValueError(
                    f"{kind}({size}) has no instances in a "
                    f"{self.tree.num_levels}-level tree"
                )
            for _ in range(count):
                if index is not None:
                    instances.append(family.instance_at(self.tree, index))
                else:
                    instances.append(family.sample(self.tree, self.rng))
        for instance in instances:
            self._incoming.append((instance, tenant))
        self.submitted += len(instances)
        return len(instances)

    def poll_tenants(self, cycle: int):
        out = list(self._incoming)
        self._incoming.clear()
        self.generated += len(out)
        return out

    def poll(self, cycle: int):
        return [instance for instance, _ in self.poll_tenants(cycle)]

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["rng"] = self.rng.bit_generator.state
        state["submitted"] = self.submitted
        state["incoming"] = [
            {"instance": instance_to_json(instance), "tenant": tenant}
            for instance, tenant in self._incoming
        ]
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.rng.bit_generator.state = state["rng"]
        self.submitted = int(state["submitted"])
        self._incoming.clear()
        for entry in state.get("incoming", ()):
            self._incoming.append(
                (instance_from_json(entry["instance"]), entry["tenant"])
            )


class QueueSink(EventSink):
    """Fans recorded events out to per-subscriber asyncio queues.

    Attached to the daemon's :class:`~repro.obs.events.EventRecorder`; each
    ``GET /events`` stream subscribes its own bounded queue.  A slow
    consumer loses events (counted in :attr:`dropped`) rather than stalling
    the serving loop — live telemetry is best-effort, the JSONL artifact
    and the journal are the durable records.
    """

    def __init__(self, maxsize: int = 1024):
        self.maxsize = maxsize
        self.dropped = 0
        self._queues: list[asyncio.Queue] = []

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue(self.maxsize)
        self._queues.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._queues.remove(queue)
        except ValueError:
            pass

    def on_event(self, fields: dict) -> None:
        for queue in self._queues:
            try:
                queue.put_nowait(fields)
            except asyncio.QueueFull:
                self.dropped += 1

    def close(self) -> None:
        """Wake every subscriber with the end-of-stream sentinel (None)."""
        for queue in self._queues:
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                pass


class ServeDaemon:
    """Hosts one :class:`~repro.serve.durability.DurableServer` long-lived.

    Parameters
    ----------
    server:
        The durable server to pump (engine + clients + state dir).  The
        daemon calls :meth:`~repro.serve.durability.DurableServer.begin_serve`
        and then owns the loop via ``server.driver.tick()``.
    feed:
        The :class:`SubmitFeed` among the server's clients (``/submit``).
    config / config_path:
        The run's :class:`~repro.serve.config.EngineConfig` and its on-disk
        ``config.json`` — both replaced whenever ``/policy`` mutates a knob,
        so recovery rebuilds the mutated engine.
    max_cycles:
        Arrival horizon handed to ``begin_serve`` (the daemon still exits
        earlier on SIGTERM).
    tick_interval / cycles_per_tick:
        The pacing knobs: pump ``cycles_per_tick`` engine cycles, then
        yield to the control plane for ``tick_interval`` seconds.
    """

    def __init__(
        self,
        server: DurableServer,
        feed: SubmitFeed,
        *,
        config: EngineConfig,
        config_path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        max_cycles: int = 1_000_000,
        drain: bool = True,
        drain_limit: int = 1_000_000,
        tick_interval: float = 0.01,
        cycles_per_tick: int = 25,
    ):
        if tick_interval < 0:
            raise ValueError(f"tick_interval must be >= 0, got {tick_interval}")
        if cycles_per_tick < 1:
            raise ValueError(
                f"cycles_per_tick must be >= 1, got {cycles_per_tick}"
            )
        self.server = server
        self.feed = feed
        self.config = config
        self.config_path = Path(config_path)
        self.host = host
        self.port = port
        self.max_cycles = max_cycles
        self.drain = drain
        self.drain_limit = drain_limit
        self.tick_interval = tick_interval
        self.cycles_per_tick = cycles_per_tick
        self.events_sink = QueueSink()
        self.report = None
        self._shutdown_requested = False
        self._engine_done = False
        self._http = None

    # -- lifecycle -------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the pump to stop at the next cycle boundary (signal-safe:
        only flips a flag; the loop notices between ticks)."""
        self._shutdown_requested = True

    async def run(self):
        """Serve until the run completes or a shutdown is requested.

        Returns the engine's :class:`~repro.serve.slo.ServeReport` (partial
        when shut down mid-run, after the final checkpoint is on disk).
        """
        engine = self.server.engine
        recorder = engine.system.recorder
        if recorder.enabled:
            recorder.attach(self.events_sink)
        self.server.begin_serve(
            self.max_cycles, drain=self.drain, drain_limit=self.drain_limit
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        self._http = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._http.sockets[0].getsockname()[1]
        print(
            f"daemon: listening on http://{self.host}:{self.port} "
            f"(state dir {self.server.state_dir})",
            flush=True,
        )
        driver = self.server.driver
        try:
            while not self._shutdown_requested and not self._engine_done:
                for _ in range(self.cycles_per_tick):
                    if self._shutdown_requested:
                        break
                    if not driver.tick():
                        self._engine_done = True
                        break
                await asyncio.sleep(self.tick_interval)
        finally:
            self.report = self._close()
            self._http.close()
            await self._http.wait_closed()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            if recorder.enabled:
                recorder.detach(self.events_sink)
        return self.report

    def _close(self):
        """Seal the run: final checkpoint (if still mid-run), journal close.

        The final checkpoint covers every journalled record, which is what
        makes the restart *rolling*: ``pmtree recover`` finds a snapshot at
        the exact shutdown boundary and replays zero records.
        """
        engine = self.server.engine
        if engine.active:
            self.server._write_checkpoint()
            print(
                f"daemon: shutdown checkpoint at cycle {engine.cycle}; "
                f"resume with: pmtree recover --state-dir "
                f"{self.server.state_dir}",
                flush=True,
            )
        report = engine.finish()
        self.server.journal.close()
        self.events_sink.close()
        return report

    # -- control-plane handlers ------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, target, _ = request_line.decode("ascii").split(" ", 2)
            except ValueError:
                await self._respond(writer, 400, {"error": "bad request line"})
                return
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("ascii", "replace").partition(":")
                headers[key.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0) or 0)
            body = await reader.readexactly(length) if length else b""
            path, _, query = target.partition("?")
            await self._route(writer, method, path, query, body)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, writer, method, path, query, body):
        try:
            if method == "GET" and path == "/status":
                await self._respond(writer, 200, self._status())
            elif method == "GET" and path == "/metrics":
                recorder = self.server.engine.system.recorder
                text = (
                    recorder.metrics.expose_text()
                    if recorder.enabled
                    else ""
                )
                await self._respond(
                    writer, 200, text.encode("utf-8"),
                    content_type="text/plain; version=0.0.4",
                )
            elif method == "GET" and path == "/events":
                await self._stream_events(writer, query)
            elif method == "POST" and path == "/submit":
                payload = json.loads(body or b"{}")
                queued = self.feed.submit(
                    payload["kind"],
                    int(payload["size"]),
                    count=int(payload.get("count", 1)),
                    tenant=payload.get("tenant"),
                    index=payload.get("index"),
                    components=int(payload.get("components", 2)),
                )
                await self._respond(
                    writer,
                    200,
                    {
                        "submitted": queued,
                        "cycle": self.server.engine.cycle,
                        "backlog": self.feed.backlog,
                    },
                )
            elif method == "POST" and path == "/policy":
                payload = json.loads(body or b"{}")
                applied = self._apply_knobs(payload)
                await self._respond(
                    writer,
                    200,
                    {
                        "applied": applied,
                        "cycle": self.server.engine.cycle,
                        "checkpoint": self.server.driver.last_checkpoint,
                    },
                )
            elif method == "POST" and path == "/shutdown":
                self.request_shutdown()
                await self._respond(writer, 200, {"shutting_down": True})
            else:
                await self._respond(
                    writer, 404, {"error": f"no route {method} {path}"}
                )
        except (KeyError, ValueError, TypeError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})

    def _status(self) -> dict:
        engine = self.server.engine
        tracker = engine.tracker
        return {
            "cycle": engine.cycle,
            "active": engine.active,
            "max_cycles": self.max_cycles,
            "policy": engine.policy.name,
            "deadline": engine.deadline,
            "retry_timeout": engine.retry_timeout,
            "arrivals": tracker.arrivals,
            "completed": tracker.completed,
            "shed": tracker.shed,
            "submitted": self.feed.submitted,
            "submit_backlog": self.feed.backlog,
            "checkpoints_written": self.server.checkpoints_written,
            "last_checkpoint": self.server.driver.last_checkpoint,
            "events_dropped": self.events_sink.dropped,
            "shutdown_requested": self._shutdown_requested,
        }

    def _apply_knobs(self, payload: dict) -> dict:
        """Apply mid-flight knob changes, persist them, seal with a checkpoint.

        Order matters for crash consistency: mutate the engine, rewrite
        ``config.json`` (so a rebuilt engine matches), then checkpoint (so
        the snapshot recovery restores from was captured *by* the mutated
        engine).  A hard kill between the rewrite and the checkpoint
        recovers from the previous checkpoint with the new config — safe,
        because knobs are not part of the replay-verified record stream.

        Every knob is checked — the policy name by the config itself —
        before any is applied, so a rejected body changes nothing.
        """
        engine = self.server.engine
        applied = {}
        unknown = set(payload) - {"policy", "deadline", "retry_timeout"}
        if unknown:
            raise ValueError(f"unknown knobs: {sorted(unknown)}")
        if not payload:
            raise ValueError(
                "pass at least one of policy/deadline/retry_timeout"
            )
        if "policy" in payload:
            applied["policy"] = payload["policy"]
        if "deadline" in payload:
            deadline = payload["deadline"]
            applied["deadline"] = None if deadline is None else int(deadline)
        if "retry_timeout" in payload:
            timeout = payload["retry_timeout"]
            if timeout is not None and int(timeout) < 1:
                raise ValueError(f"retry_timeout must be >= 1, got {timeout}")
            applied["retry_timeout"] = None if timeout is None else int(timeout)
        config = dataclasses.replace(self.config, **applied)
        if "policy" in applied:
            engine.policy = make_policy(
                config.policy,
                max_components=engine.policy.max_components,
                bound_k=getattr(engine.system.mapping, "k", None),
            )
        if "deadline" in applied:
            engine.deadline = config.deadline
        if "retry_timeout" in applied:
            engine.retry_timeout = config.retry_timeout
        self.config = config
        self.config_path.write_text(self.config.to_json())
        if engine.active:
            self.server._write_checkpoint()
        return applied

    async def _stream_events(self, writer, query: str) -> None:
        limit = None
        for part in query.split("&"):
            if part.startswith("limit="):
                limit = int(part[len("limit="):])
        recorder = self.server.engine.system.recorder
        if not recorder.enabled:
            await self._respond(
                writer, 503, {"error": "daemon started without a recorder"}
            )
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        queue = self.events_sink.subscribe()
        sent = 0
        try:
            while limit is None or sent < limit:
                fields = await queue.get()
                if fields is None:  # daemon closing
                    break
                writer.write(json.dumps(fields).encode("utf-8") + b"\n")
                await writer.drain()
                sent += 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.events_sink.unsubscribe(queue)

    _REASONS = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        503: "Service Unavailable",
    }

    async def _respond(
        self, writer, status: int, body, content_type: str = "application/json"
    ) -> None:
        data = (
            body
            if isinstance(body, bytes)
            else (json.dumps(body) + "\n").encode("utf-8")
        )
        reason = self._REASONS.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("ascii")
            + data
        )
        await writer.drain()
