"""Sweep harness: parsing, run_one records, run_batch events."""

import dataclasses
import json

import pytest

from repro.experiments.store import ResultsStore
from repro.experiments.sweep import (
    SweepError,
    SweepPoint,
    parse_sweep,
    run_batch,
    run_one,
    validate_point,
)

#: Small enough that a sweep point runs in well under a second.
TINY = SweepPoint(scale=2, tuples_per_gpu=64 * 1024, real_tuples=1024)


def test_parse_sweep_cartesian_product():
    points = parse_sweep(
        ["topology=dgx1", "policy=adaptive,static", "scale=2,4"],
        defaults=TINY,
    )
    assert len(points) == 4
    assert {(p.policy, p.scale) for p in points} == {
        ("adaptive", 2), ("adaptive", 4), ("static", 2), ("static", 4),
    }
    # Unswept axes keep the default point's values.
    assert all(p.real_tuples == TINY.real_tuples for p in points)
    # Deterministic expansion order: token order drives the product.
    assert [p.policy for p in points[:2]] == ["adaptive", "adaptive"]


def test_parse_sweep_rejects_bad_tokens():
    with pytest.raises(SweepError, match="key=v1"):
        parse_sweep(["topology"])
    with pytest.raises(SweepError, match="unknown sweep axis"):
        parse_sweep(["topolgy=dgx1"])
    with pytest.raises(SweepError, match="twice"):
        parse_sweep(["scale=2", "scale=4"])
    with pytest.raises(SweepError, match="empty sweep"):
        parse_sweep([])
    with pytest.raises(SweepError, match="bad value"):
        parse_sweep(["scale=two"])


def test_parse_sweep_faults_none_and_dedup():
    points = parse_sweep(["faults=none,nvlink-cut"], defaults=TINY)
    assert [p.faults for p in points] == [None, "nvlink-cut"]
    # Duplicate values collapse to one point per run ID.
    assert len(parse_sweep(["policy=adaptive,adaptive"], defaults=TINY)) == 1


def test_validate_point_rejects_unknowns():
    with pytest.raises(SweepError, match="unknown topology"):
        validate_point(dataclasses.replace(TINY, topology="dgx9"))
    with pytest.raises(SweepError, match="unknown policy"):
        validate_point(dataclasses.replace(TINY, policy="psychic"))
    with pytest.raises(SweepError, match="unknown fault preset"):
        validate_point(dataclasses.replace(TINY, faults="meteor"))
    validate_point(dataclasses.replace(TINY, policy="static"))  # aliased


def test_run_one_builds_full_record(tmp_path):
    store = ResultsStore(tmp_path / "exp")
    record = run_one(TINY, store=store)
    assert record.run_id == TINY.run_id
    assert record.kind == "join"
    assert record.metrics["join.throughput_btps"] > 0
    assert record.directions["join.throughput_btps"] == "higher"
    assert record.metrics["perf.self_time_seconds"] > 0
    # Span-derived phases, link breakdown, meta stamp all present.
    assert record.phases
    assert all(seconds >= 0 for seconds in record.phases.values())
    assert record.links and "busy_seconds" in record.links[0]
    assert record.meta["run_id"] == TINY.run_id
    assert record.meta["policy"] == "adaptive"
    assert record.meta["config_hash"]  # like-for-like provenance digest
    # Self-time gauges made it into the registry snapshot.
    gauge_names = {row["name"] for row in record.snapshot["gauges"]}
    assert any(name.endswith(".self_seconds") for name in gauge_names)
    assert record.run_id in store


def test_run_one_is_deterministic_across_repeats():
    a, b = run_one(TINY), run_one(TINY)
    assert a.run_id == b.run_id
    wallclock = {"perf.self_time_seconds"}
    assert {k: v for k, v in a.metrics.items() if k not in wallclock} == \
           {k: v for k, v in b.metrics.items() if k not in wallclock}


def test_run_one_chaos_point_adds_fault_telemetry(tmp_path):
    point = dataclasses.replace(TINY, faults="nvlink-cut")
    record = run_one(point)
    assert record.kind == "chaos"
    assert 0 < record.metrics["chaos.throughput_retention"] <= 1.5
    assert record.metrics["chaos.correct"] == 1.0
    assert record.telemetry["digest_match"] is True


def test_run_one_crash_point_carries_the_cli_recovery_keys(tmp_path):
    from repro.cli import main

    record = run_one(dataclasses.replace(TINY, scale=4, faults="gpu-crash"))
    out_dir = tmp_path / "chaos"
    code = main(
        [
            "chaos", "--gpus", "4", "--preset", "gpu-crash",
            "--tuples-per-gpu", "64K", "--real-tuples", "1K",
            "--expect-loss", "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    payload = json.loads((out_dir / "chaos_report.json").read_text())
    telemetry = payload["recovery_telemetry"]
    assert record.telemetry["recovery"].keys() == telemetry.keys()
    assert "checkpoint_restored_bytes" in telemetry


def test_run_one_rejects_overscaled_point():
    with pytest.raises(SweepError, match="exceeds"):
        run_one(dataclasses.replace(TINY, scale=64))


def test_run_batch_commits_and_emits_events(tmp_path):
    store = ResultsStore(tmp_path / "exp")
    points = parse_sweep(["policy=adaptive,static"], defaults=TINY)
    events = []
    records = run_batch(points, store, jobs=1, progress=events.append)
    assert len(records) == 2
    assert len(store) == 2
    kinds = [event["event"] for event in events]
    assert kinds[0] == "sweep_started"
    assert kinds[-1] == "sweep_finished"
    assert kinds.count("point_finished") == 2
    finished = [e for e in events if e["event"] == "point_finished"]
    assert {e["run_id"] for e in finished} == {p.run_id for p in points}
    assert all(e["throughput_btps"] > 0 for e in finished)
    assert events[-1]["failed"] == 0


def test_run_batch_surfaces_failures_after_committing_rest(tmp_path):
    store = ResultsStore(tmp_path / "exp")
    good = TINY
    bad = dataclasses.replace(TINY, seed=7, scale=64)  # over-scaled
    events = []
    with pytest.raises(SweepError, match="1 of 2"):
        # validate_point passes (dgx1 exists, 64 >= 1); the worker fails.
        run_batch([good, bad], store, jobs=1, progress=events.append)
    assert len(store) == 1  # the good point still landed
    assert any(event["event"] == "point_failed" for event in events)


def test_run_batch_rejects_empty_and_bad_jobs(tmp_path):
    store = ResultsStore(tmp_path / "exp")
    with pytest.raises(SweepError, match="at least one"):
        run_batch([], store)
    with pytest.raises(SweepError, match="jobs"):
        run_batch([TINY], store, jobs=0)


def test_run_batch_parallel_matches_serial(tmp_path):
    points = parse_sweep(["policy=adaptive,direct"], defaults=TINY)
    serial = ResultsStore(tmp_path / "serial")
    parallel = ResultsStore(tmp_path / "parallel")
    run_batch(points, serial, jobs=1)
    run_batch(points, parallel, jobs=2)
    wallclock = {"perf.self_time_seconds"}
    for point in points:
        a = serial.get(point.run_id).metrics
        b = parallel.get(point.run_id).metrics
        assert {k: v for k, v in a.items() if k not in wallclock} == \
               {k: v for k, v in b.items() if k not in wallclock}
