"""Link lanes: the per-link transfer spans a simulation records.

A ``tracer=`` span store handed to the simulator is wrapped in a
:class:`~repro.sim.linksim.LinkLanes` recorder, which writes one
simulated-clock ``"transfer"`` span per booked link transfer.
"""

import warnings

import pytest

from repro.obs import Observer
from repro.obs.analyze import LinkTimelineSampler, ascii_heatmap
from repro.obs.export import to_chrome_trace, to_csv, summary
from repro.obs.spans import SpanTracer
from repro.routing import DirectPolicy
from repro.sim import FlowMatrix, ShuffleConfig, ShuffleSimulator
from repro.sim.fabric import Fabric, run_recorders
from repro.sim.linksim import LinkLanes

MB = 1024 * 1024


def _lanes(spans: SpanTracer) -> list:
    return [
        span for span in spans.spans
        if span.category == "link" and span.name == "transfer"
    ]


def _lane_recorder(fabric: Fabric) -> LinkLanes:
    (lanes,) = [r for r in fabric.recorders if isinstance(r, LinkLanes)]
    return lanes


@pytest.fixture
def traced_run(dgx1):
    observer = Observer()
    sampler = LinkTimelineSampler()
    flows = FlowMatrix.all_to_all((0, 1, 4), 8 * MB)
    config = ShuffleConfig(injection_rate=None, consume_rate=None)
    report = ShuffleSimulator(
        dgx1, (0, 1, 4), config, tracer=observer.spans, sampler=sampler
    ).run(flows, DirectPolicy())
    return observer, sampler, report


def test_transfers_recorded(traced_run):
    observer, _, report = traced_run
    transfers = _lanes(observer.spans)
    assert len(transfers) > 0
    # Every lane byte corresponds to wire traffic.
    assert sum(span.attrs["bytes"] for span in transfers) == report.wire_bytes


def test_horizon_matches_elapsed(traced_run):
    observer, _, report = traced_run
    horizon = max(span.end for span in _lanes(observer.spans))
    assert horizon == pytest.approx(report.elapsed, rel=0.05)


def test_busy_time_consistent_with_link_stats(traced_run):
    observer, _, report = traced_run
    lanes = _lanes(observer.spans)
    for stats in report.link_stats.values():
        label = str(stats.spec)
        on_lane = [span for span in lanes if span.track == label]
        assert sum(span.duration for span in on_lane) == pytest.approx(
            stats.busy_time
        )
        assert sum(span.attrs["bytes"] for span in on_lane) == stats.bytes_sent


def test_csv_export(traced_run):
    observer, _, _ = traced_run
    lines = to_csv(observer).strip().splitlines()
    assert lines[0] == "record,clock,track,name,start,duration,value,labels"
    span_rows = [line for line in lines[1:] if line.startswith("span,")]
    assert len(span_rows) == len(observer.spans.spans)
    assert all(row.startswith("span,sim,") for row in span_rows)
    assert all(",transfer," in row and "bytes=" in row for row in span_rows)


def test_ascii_gantt_renders(traced_run):
    _, sampler, _ = traced_run
    chart = ascii_heatmap(sampler.timeline(num_buckets=40), top=5)
    rows = [line for line in chart.splitlines() if line.count("|") == 2]
    assert 0 < len(rows) <= 5
    assert any(cell != " " for row in rows for cell in row.split("|")[1])
    assert "ms" in chart


def test_empty_tracer(tiny_machine):
    spans = SpanTracer()
    fabric = Fabric(tiny_machine, recorders=run_recorders(tracer=spans))
    assert isinstance(_lane_recorder(fabric), LinkLanes)
    fabric.engine.run()
    assert _lanes(spans) == []
    assert len(spans) == 0
    sampler = LinkTimelineSampler()
    assert sampler.horizon == 0.0
    assert ascii_heatmap(sampler.timeline()) == "(no link activity recorded)\n"


def test_event_cap_counts_drops_and_warns_once(tiny_machine):
    spans = SpanTracer(max_records=2)
    fabric = Fabric(tiny_machine, recorders=run_recorders(tracer=spans))
    lanes = _lane_recorder(fabric)
    channel = next(iter(fabric.links.values()))
    assert spans.dropped == 0
    with pytest.warns(RuntimeWarning, match="max_records"):
        for index in range(5):
            lanes.record_transfer(channel, index, index, index + 1.0, 1)
    assert len(_lanes(spans)) == 2
    assert spans.dropped == 3
    # The warning fires only on the first drop; later drops are only
    # counted (simplefilter("error") would raise if it re-warned).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lanes.record_transfer(channel, 9.0, 9.0, 10.0, 1)
    assert spans.dropped == 4


def test_csv_footer_reports_drops(tiny_machine):
    observer = Observer(max_records=1)
    fabric = Fabric(
        tiny_machine, recorders=run_recorders(tracer=observer.spans)
    )
    lanes = _lane_recorder(fabric)
    channel = next(iter(fabric.links.values()))
    with pytest.warns(RuntimeWarning):
        lanes.record_transfer(channel, 0.0, 0.0, 1.0, 1)
        lanes.record_transfer(channel, 1.0, 1.0, 2.0, 1)
    assert summary(observer).strip().endswith("WARNING: 1 records dropped (cap hit)")
    assert to_chrome_trace(observer)["otherData"]["dropped_records"] == 1


def test_shared_span_store_merges_and_respects_its_cap(tiny_machine):
    observer = Observer(max_records=2)
    with observer.spans.span("setup"):
        pass
    fabric = Fabric(
        tiny_machine, recorders=run_recorders(tracer=observer.spans)
    )
    lanes = _lane_recorder(fabric)
    channel = next(iter(fabric.links.values()))
    with pytest.warns(RuntimeWarning, match="max_records"):
        lanes.record_transfer(channel, 0.0, 0.0, 1.0, 64)
        lanes.record_transfer(channel, 1.0, 1.0, 2.0, 64)
    # The wall span and the first lane share the store; the second lane
    # span was refused by the store's cap and counted as a drop.
    assert [span.name for span in observer.spans.spans] == ["setup", "transfer"]
    assert observer.spans.dropped == 1
    (span,) = _lanes(observer.spans)
    assert span.track == str(channel.spec)
    assert span.attrs["bytes"] == 64


def test_events_are_views_over_spans(tiny_machine):
    spans = SpanTracer()
    fabric = Fabric(tiny_machine, recorders=run_recorders(tracer=spans))
    lanes = _lane_recorder(fabric)
    channel = next(iter(fabric.links.values()))
    lanes.record_transfer(channel, 0.25, 0.5, 0.75, 128)
    (span,) = spans.spans
    assert span.name == "transfer"
    assert (span.start, span.end) == (0.5, 0.75)
    assert span.track == str(channel.spec)
    assert span.clock == "sim"
    assert span.category == "link"
    assert span.attrs == {"bytes": 128, "detail": ""}
    assert span.duration == pytest.approx(0.25)


def test_event_end(traced_run):
    observer, _, _ = traced_run
    by_track: dict[str, list] = {}
    for span in _lanes(observer.spans):
        assert span.end > span.start
        by_track.setdefault(span.track, []).append(span)
    # A link serves one transfer at a time: each lane span ends before
    # the next one on the same lane starts.
    for spans in by_track.values():
        spans.sort(key=lambda span: span.start)
        for before, after in zip(spans, spans[1:]):
            assert before.end <= after.start + 1e-12
