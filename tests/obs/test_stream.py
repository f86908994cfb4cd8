"""Telemetry stream: schema, sinks, bounds, and simulator integration."""

import io
import json

import pytest

from repro.obs import Observer
from repro.obs.analyze import ObservedRun
from repro.obs.stream import (
    EVENT_TYPES,
    STREAM_SCHEMA_VERSION,
    TelemetryStream,
    read_events,
    validate_event,
)
from repro.routing import AdaptiveArmPolicy
from repro.sim import FlowMatrix, ShuffleSimulator

MB = 1024 * 1024


class TestTelemetryStream:
    def test_emit_writes_schema_versioned_ndjson(self):
        sink = io.StringIO()
        stream = TelemetryStream(sink)
        stream.emit("run.started", t=0.0, clock="sim", gpus=4)
        stream.emit("run.finished", t=1.5, clock="sim", elapsed=1.5)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["v"] == STREAM_SCHEMA_VERSION
        assert first["type"] == "run.started"
        assert first["gpus"] == 4
        assert validate_event(first) == []
        assert validate_event(json.loads(lines[1])) == []

    def test_subscribers_see_every_event(self):
        stream = TelemetryStream(None)
        seen = []
        stream.subscribe(seen.append)
        stream.emit("phase", t=0.0, clock="wall", name="shuffle", state="begin")
        assert seen and seen[0]["name"] == "shuffle"

    def test_max_events_drops_and_counts(self):
        sink = io.StringIO()
        stream = TelemetryStream(sink, max_events=2)
        for _ in range(5):
            stream.emit("packet.recovered", t=0.0)
        assert stream.events_emitted == 2
        assert stream.events_dropped == 3
        assert len(sink.getvalue().splitlines()) == 2
        assert stream.stats == {"events_emitted": 2, "events_dropped": 3}

    def test_path_sink_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "stream.ndjson"
        stream = TelemetryStream(path)
        stream.emit("run.finished", t=2.0, elapsed=2.0)
        stream.close()
        events = list(read_events(path))
        assert len(events) == 1
        assert events[0]["elapsed"] == 2.0

    def test_read_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        path.write_text(
            json.dumps({"v": 1, "type": "run.started", "t": 0, "clock": "sim"})
            + "\n"
            + '{"v":1,"type":"run.fin'  # torn write
        )
        events = list(read_events(path))
        assert len(events) == 1

    def test_closed_sink_keeps_subscribers_alive(self):
        sink = io.StringIO()
        stream = TelemetryStream(sink)
        seen = []
        stream.subscribe(seen.append)
        sink.close()
        stream.emit("packet.recovered", t=0.0)
        assert len(seen) == 1


class TestValidateEvent:
    def test_rejects_non_dict(self):
        assert validate_event([1, 2]) != []

    def test_rejects_wrong_schema_version(self):
        assert any(
            "schema version" in p
            for p in validate_event(
                {"v": 99, "type": "run.started", "t": 0.0, "clock": "sim"}
            )
        )

    def test_rejects_unknown_type(self):
        assert any(
            "unknown event type" in p
            for p in validate_event({"v": 1, "type": "nope", "t": 0.0, "clock": "sim"})
        )

    def test_rejects_missing_required_fields(self):
        problems = validate_event(
            {"v": 1, "type": "run.finished", "t": 0.0, "clock": "sim"}
        )
        assert any("missing field 'elapsed'" in p for p in problems)

    def test_rejects_bad_clock_and_time(self):
        problems = validate_event(
            {"v": 1, "type": "run.started", "t": "soon", "clock": "lunar"}
        )
        assert any("expected number" in p for p in problems)
        assert any("clock" in p for p in problems)

    def test_rejects_bad_phase_state_and_samples(self):
        assert any(
            "begin/end" in p
            for p in validate_event(
                {"v": 1, "type": "phase", "t": 0.0, "clock": "wall",
                 "name": "shuffle", "state": "paused"}
            )
        )
        assert any(
            "malformed sample" in p
            for p in validate_event(
                {"v": 1, "type": "links", "t": 0.0, "clock": "sim",
                 "samples": [{"util": 1.0}], "max_util": 1.0, "max_queue": 0.0}
            )
        )


def _run_shuffle(machine, **wiring):
    gpu_ids = tuple(machine.gpu_ids)
    flows = FlowMatrix.all_to_all(gpu_ids, 8 * MB)
    simulator = ShuffleSimulator(machine, gpu_ids, **wiring)
    return simulator.run(flows, AdaptiveArmPolicy())


class TestSimulatorIntegration:
    def test_streamed_run_emits_valid_events_and_terminates(self, dgx1):
        sink = io.StringIO()
        observer = Observer()
        observer.stream = TelemetryStream(sink)
        report = _run_shuffle(dgx1, observer=observer)
        assert report.elapsed > 0.0
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert events, "streamed run emitted nothing"
        for event in events:
            assert validate_event(event) == [], event
        types = {event["type"] for event in events}
        assert {"run.started", "links", "kernel", "run.finished"} <= types
        # The link pump samples on the sim clock and stops with the run:
        # run.finished carries the engine end time (>= last delivery),
        # and no sample outlives it.
        finished = next(e for e in events if e["type"] == "run.finished")
        assert finished["elapsed"] >= report.elapsed
        last_sample = max(
            e["t"] for e in events if e["type"] == "links"
        )
        assert last_sample <= finished["elapsed"]

    def test_streaming_does_not_perturb_the_simulation(self, dgx1):
        baseline = _run_shuffle(dgx1)
        observer = Observer()
        observer.stream = TelemetryStream(io.StringIO())
        streamed = _run_shuffle(dgx1, observer=observer)
        assert streamed.elapsed == baseline.elapsed
        assert streamed.throughput == baseline.throughput

    def test_two_periodic_probes_coexist(self, dgx1):
        """Stream pump + timeline sampler must not keep each other alive."""
        baseline = _run_shuffle(dgx1)
        run = ObservedRun()
        run.observer.stream = TelemetryStream(io.StringIO())
        report = _run_shuffle(dgx1, **run.wiring)
        assert report.elapsed == baseline.elapsed
        assert run.sampler.horizon == pytest.approx(report.elapsed)


def test_event_types_registry_is_consistent():
    for etype, fields in EVENT_TYPES.items():
        assert isinstance(etype, str) and etype
        assert all(isinstance(field, str) for field in fields)
