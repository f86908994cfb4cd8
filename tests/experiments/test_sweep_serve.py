"""Sweep harness: the queries=/arrival= serving axes."""

import dataclasses

import pytest

from repro.experiments.store import ResultsStore
from repro.experiments.sweep import (
    SweepError,
    SweepPoint,
    parse_sweep,
    run_one,
    validate_point,
)

TINY = SweepPoint(scale=2, tuples_per_gpu=64 * 1024, real_tuples=1024)


class TestServeAxes:
    def test_parse_queries_and_arrival(self):
        points = parse_sweep(
            ["queries=1,4", "arrival=0.0,0.001"], defaults=TINY,
        )
        assert len(points) == 4
        assert {(p.queries, p.arrival) for p in points} == {
            (1, 0.0), (1, 0.001), (4, 0.0), (4, 0.001),
        }

    def test_multi_query_points_are_serve_runs(self):
        solo = dataclasses.replace(TINY, queries=1)
        served = dataclasses.replace(TINY, queries=4)
        assert solo.run_kind == "join"
        assert served.run_kind == "serve"
        assert "4q" in served.label and "4q" not in solo.label
        # Fault axis composes: a faulted serve point is still "serve".
        assert dataclasses.replace(served, faults="gpu-crash").run_kind == "serve"

    def test_validate_rejects_bad_serve_points(self):
        with pytest.raises(SweepError, match="queries"):
            validate_point(dataclasses.replace(TINY, queries=0))
        with pytest.raises(SweepError, match="arrival"):
            validate_point(dataclasses.replace(TINY, arrival=-0.1))
        validate_point(dataclasses.replace(TINY, queries=4))


class TestServeRunOne:
    def test_healthy_serve_point_records_sla_metrics(self, tmp_path):
        store = ResultsStore(tmp_path / "exp")
        point = dataclasses.replace(TINY, queries=4)
        record = run_one(point, store=store)
        assert record.kind == "serve"
        assert record.metrics["serve.completed"] == 4.0
        assert record.metrics["serve.failed"] == 0.0
        assert record.metrics["serve.in_flight_peak"] == 4.0
        assert record.metrics["serve.retention_ratio"] == 1.0
        assert record.metrics["serve.elapsed_ms"] > 0
        assert record.directions["serve.latency_max_ms"] == "lower"
        statuses = record.telemetry["serve"]["statuses"]
        assert set(statuses.values()) == {"completed"}

    def test_faulted_serve_point_carries_the_chaos_gate(self, tmp_path):
        store = ResultsStore(tmp_path / "exp")
        point = dataclasses.replace(
            TINY, scale=4, queries=4, faults="gpu-crash",
        )
        record = run_one(point, store=store)
        assert record.kind == "serve"
        assert record.metrics["chaos.correct"] == 1.0
        assert record.metrics["serve.completed"] == 4.0
        assert record.metrics["chaos.recovered_queries"] >= 1.0
