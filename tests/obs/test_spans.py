"""SpanTracer: nesting, clocks, the record cap, queries."""

import warnings

import pytest

from repro.obs import SIM, WALL, SpanTracer


def test_span_context_manager_nests():
    tracer = SpanTracer()
    with tracer.span("outer") as outer:
        assert tracer.current is outer
        with tracer.span("inner") as inner:
            assert tracer.current is inner
            assert inner.parent_id == outer.span_id
    assert tracer.current is None
    # Inner closes first, so it is recorded first.
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_span_recorded_on_exception():
    tracer = SpanTracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    assert [s.name for s in tracer.spans] == ["doomed"]
    assert tracer.current is None


def test_wall_spans_carry_wall_clock_and_attrs():
    tracer = SpanTracer()
    with tracer.span("phase", gpus=8) as span:
        pass
    assert span.clock == WALL
    assert span.category == "phase"
    assert span.attrs == {"gpus": 8}
    assert span.duration >= 0.0


def test_add_span_defaults_to_sim_clock():
    tracer = SpanTracer()
    span = tracer.add_span("transfer", 1.0, 3.5, track="gpu0->gpu1")
    assert span.clock == SIM
    assert span.duration == pytest.approx(2.5)
    assert tracer.find(track="gpu0->gpu1") == [span]


def test_add_span_rejects_negative_duration():
    tracer = SpanTracer()
    with pytest.raises(ValueError, match="ends"):
        tracer.add_span("bad", 2.0, 1.0)


def test_instants_recorded_and_filtered():
    tracer = SpanTracer()
    tracer.instant("decision", 0.5, category="route", arm=1.25)
    tracer.instant("other", 0.6, category="misc")
    decisions = tracer.find_instants(category="route")
    assert len(decisions) == 1
    assert decisions[0].attrs["arm"] == 1.25
    assert len(tracer.find_instants("other")) == 1


def test_record_cap_counts_drops_and_warns_once():
    tracer = SpanTracer(max_records=2)
    tracer.add_span("a", 0.0, 1.0)
    with pytest.warns(RuntimeWarning, match="max_records"):
        tracer.add_span("b", 0.0, 1.0)
        assert tracer.add_span("c", 0.0, 1.0) is None
    assert len(tracer) == 2
    assert tracer.dropped == 1
    # Further drops are counted without re-warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tracer.instant("d", 0.0) is None
    assert tracer.dropped == 2


def test_max_records_must_be_positive():
    with pytest.raises(ValueError):
        SpanTracer(max_records=0)


def test_queries_filter_on_every_axis():
    tracer = SpanTracer()
    tracer.add_span("x", 0.0, 1.0, clock=SIM, category="link", track="l0")
    tracer.add_span("x", 0.0, 2.0, clock=SIM, category="phase", track="p")
    tracer.add_span("y", 0.0, 4.0, clock=WALL, category="phase", track="p")
    assert len(tracer.find("x")) == 2
    assert len(tracer.find(category="phase")) == 2
    assert len(tracer.find("x", category="link")) == 1
    assert tracer.find(clock=WALL)[0].name == "y"


def test_self_times_subtract_direct_children():
    tracer = SpanTracer()
    tracer.add_span("join", 0.0, 10.0)
    parent = tracer.spans[-1]
    tracer.add_span("shuffle", 1.0, 5.0, parent_id=parent.span_id)
    tracer.add_span("probe", 5.0, 8.0, parent_id=parent.span_id)
    self_times = tracer.self_times()
    assert self_times["join"] == pytest.approx(3.0)  # 10 - (4 + 3)
    assert self_times["shuffle"] == pytest.approx(4.0)  # leaf = inclusive
    assert self_times["probe"] == pytest.approx(3.0)


def test_self_times_aggregate_by_name_and_clamp():
    tracer = SpanTracer()
    tracer.add_span("phase", 0.0, 2.0)
    tracer.add_span("phase", 3.0, 4.0)
    assert tracer.self_times() == {"phase": pytest.approx(3.0)}
    # Overlapping children longer than the parent clamp to zero, not
    # negative (can happen with wall-clock jitter on nested spans).
    tracer = SpanTracer()
    tracer.add_span("outer", 0.0, 1.0)
    outer = tracer.spans[-1]
    tracer.add_span("inner", 0.0, 1.0, parent_id=outer.span_id)
    tracer.add_span("inner2", 0.0, 1.0, parent_id=outer.span_id)
    assert tracer.self_times()["outer"] == 0.0


def test_self_times_filter_by_clock():
    tracer = SpanTracer()
    tracer.add_span("sim.work", 0.0, 5.0)  # SIM clock
    with tracer.span("wall.work"):
        pass
    assert set(tracer.self_times(clock=SIM)) == {"sim.work"}
    assert set(tracer.self_times(clock=WALL)) == {"wall.work"}
    assert set(tracer.self_times()) == {"sim.work", "wall.work"}
