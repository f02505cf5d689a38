"""Event sinks, the bounded recorder buffer, and registry snapshots."""

import json

import pytest

from repro.obs import (
    CallbackSink,
    EventRecorder,
    JsonlSink,
    MetricsRegistry,
    load_artifact,
)


def _record_some(recorder, n=6):
    for cycle in range(n):
        recorder.event("issue", cycle=cycle, module=cycle % 3, latency=2)
        recorder.event("queue_depth", cycle=cycle, module=0, depth=cycle + 1)


# -- CallbackSink / attach / detach --------------------------------------------


def test_callback_sink_sees_every_event_until_detached():
    recorder = EventRecorder()
    seen = []
    sink = CallbackSink(seen.append)
    recorder.attach(sink)
    _record_some(recorder, 2)
    assert [e["ev"] for e in seen] == ["issue", "queue_depth"] * 2
    recorder.detach(sink)
    _record_some(recorder, 1)
    assert len(seen) == 4  # detached sinks see nothing further
    recorder.detach(sink)  # double-detach is a no-op


# -- JsonlSink: streamed artifact == batch save() ------------------------------


def test_streamed_artifact_equals_batch_save(tmp_path):
    recorder = EventRecorder()
    recorder.set_meta(mode="serve", system="test")
    stream = recorder.stream_to(tmp_path / "live.jsonl")
    _record_some(recorder)
    recorder.event("complete", cycle=9, module=1, latency=4)
    stream.close()
    recorder.detach(stream)
    saved = recorder.save(tmp_path / "batch.jsonl")

    live = load_artifact(tmp_path / "live.jsonl")
    batch = load_artifact(saved)
    assert live == batch
    meta, events, metrics = live
    assert meta["span"] == 13  # cycle 9 + latency 4
    assert meta["num_events"] == 13
    assert len(events) == 13
    assert metrics["events.issue"] == {"type": "counter", "value": 6}


def test_truncated_stream_still_parses(tmp_path):
    recorder = EventRecorder()
    stream = recorder.stream_to(tmp_path / "cut.jsonl")
    _record_some(recorder, 3)
    stream.flush()  # daemon killed here: no final meta/metrics lines
    meta, events, metrics = load_artifact(tmp_path / "cut.jsonl")
    assert len(events) == 6
    assert "span" not in meta  # only the header meta line made it out
    assert metrics == {}
    stream.close()
    stream.close()  # idempotent


# -- ring buffer ---------------------------------------------------------------


def test_ring_buffer_evicts_oldest_but_metrics_and_sinks_see_all(tmp_path):
    """The pinned eviction-consistency contract: a bounded buffer drops the
    oldest events, while the metrics registry, attached sinks, and the
    streamed artifact still account for every event ever recorded."""
    recorder = EventRecorder(capacity=4)
    seen = []
    recorder.attach(CallbackSink(seen.append))
    stream = recorder.stream_to(tmp_path / "all.jsonl")
    _record_some(recorder, 6)  # 12 events into a 4-slot ring
    assert len(recorder.events) == 4
    assert recorder.evicted == 8
    assert [e["cycle"] for e in recorder.events] == [4, 4, 5, 5]
    assert len(seen) == 12
    assert recorder.metrics.counter("events.issue").value == 6
    stream.close()
    meta, events, _ = load_artifact(tmp_path / "all.jsonl")
    assert len(events) == 12  # the stream is complete despite eviction
    assert meta["evicted"] == 8
    assert meta["num_events"] == 12


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventRecorder(capacity=0)


# -- state_dict round-trip -----------------------------------------------------


def test_state_round_trip_preserves_metrics_despite_eviction():
    recorder = EventRecorder(capacity=3)
    _record_some(recorder, 5)
    state = recorder.state_dict()

    restored = EventRecorder(capacity=3)
    restored.load_state(state)
    assert restored.events == recorder.events
    assert restored.evicted == recorder.evicted == 7
    # replaying the 3 surviving events could never rebuild these counts —
    # the registry snapshot in the state dict is what makes them exact
    assert restored.metrics.snapshot() == recorder.metrics.snapshot()
    assert restored.metrics.counter("events.issue").value == 5


def test_load_state_replays_events_for_pre_snapshot_captures():
    recorder = EventRecorder()
    _record_some(recorder, 4)
    state = recorder.state_dict()
    del state["metrics"]  # a capture from before the registry rode along
    del state["evicted"]

    restored = EventRecorder()
    restored.load_state(state)
    assert restored.evicted == 0
    assert restored.metrics.snapshot() == recorder.metrics.snapshot()


def test_metrics_registry_snapshot_round_trip():
    registry = MetricsRegistry()
    registry.counter("reqs").inc(7)
    registry.histogram("depth", buckets=(1, 2, 4)).observe(3)
    registry.histogram("depth").observe(9)
    registry.gauge("inflight").set(5)
    registry.gauge("inflight").set(2)
    empty = registry.gauge("never_set")  # min/max stay at the sentinels

    restored = MetricsRegistry.from_snapshot(registry.snapshot())
    assert restored.snapshot() == registry.snapshot()
    assert restored.expose_text() == registry.expose_text()
    restored.histogram("depth").observe(1)  # still usable after restore
    assert restored.histogram("depth").total == 3
    assert empty.name == "never_set"


def test_metrics_registry_round_trip_keeps_integer_extremes():
    """Integer observations restore as integers, so a snapshot taken after
    a restore is byte-identical to the uninterrupted run's."""
    registry = MetricsRegistry()
    registry.histogram("depth", buckets=(1, 2, 4)).observe(3)
    registry.gauge("inflight").set(5)
    registry.gauge("inflight").set(2)
    text = json.dumps(registry.snapshot())
    restored = MetricsRegistry.from_snapshot(json.loads(text))
    assert json.dumps(restored.snapshot()) == text
