"""The parallel benchmark runner and the on-disk workload cache."""

import json

import pytest

from repro.bench import harness, run_benchmarks
from repro.bench.runner import RUN_MANIFEST
from repro.obs import config_hash
from repro.workloads import WorkloadSpec, generate_workload


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError, match="fig99"):
        run_benchmarks(figures=["fig99"], out_dir=tmp_path)


def test_zero_jobs_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_benchmarks(figures=["fig04"], jobs=0, out_dir=tmp_path)


def test_runner_records_self_time_and_manifest(tmp_path):
    # fig04 is analytic (no simulation), so this stays fast.
    bench = run_benchmarks(figures=["fig04"], jobs=1, out_dir=tmp_path)
    assert bench.ok
    run = bench.figures[0]
    assert run.figure == "fig04"
    assert run.self_time_seconds >= 0.0
    assert run.rows > 0

    manifest = json.loads((tmp_path / RUN_MANIFEST).read_text())
    entry = manifest["figures"]["fig04"]
    assert entry["self_time_seconds"] == run.self_time_seconds
    assert entry["error"] is None
    assert manifest["wall_time_seconds"] > 0.0
    assert manifest["self_time_total_seconds"] == run.self_time_seconds

    # The per-figure artifact carries the same self-time, so the bench
    # JSON alone documents how expensive each figure was to regenerate.
    artifact = json.loads((tmp_path / "figure_4.json").read_text())
    assert artifact["perf"]["self_time_seconds"] == run.self_time_seconds


def test_failed_figure_surfaces_in_manifest(tmp_path, monkeypatch):
    from repro.bench import runner

    def explode():
        raise RuntimeError("boom")

    monkeypatch.setitem(runner.ALL_FIGURES, "fig04", explode)
    bench = run_benchmarks(figures=["fig04"], jobs=1, out_dir=tmp_path)
    assert not bench.ok
    assert "RuntimeError: boom" in bench.figures[0].error
    assert "FAILED" in bench.render()


def _tiny_spec():
    return WorkloadSpec(
        gpu_ids=(0, 1),
        logical_tuples_per_gpu=1 << 20,
        real_tuples_per_gpu=1 << 10,
        seed=7,
    )


def test_disk_cache_round_trips_workloads(tmp_path, monkeypatch):
    spec = _tiny_spec()
    first = harness._disk_cached_workload(spec, tmp_path)
    entries = list(tmp_path.glob("workload-*.pkl"))
    # Keyed by the spec alone.
    assert [entry.name for entry in entries] == [
        f"workload-{config_hash(spec)}.pkl"
    ]

    # Second call must come from disk: generating again would explode.
    monkeypatch.setattr(
        harness,
        "generate_workload",
        lambda spec: pytest.fail("cache miss regenerated the workload"),
    )
    second = harness._disk_cached_workload(spec, tmp_path)
    assert second.real_tuples == first.real_tuples


def test_disk_cache_recovers_from_corrupt_entry(tmp_path):
    spec = _tiny_spec()
    harness._disk_cached_workload(spec, tmp_path)
    entry = next(tmp_path.glob("workload-*.pkl"))
    entry.write_bytes(b"not a pickle")
    workload = harness._disk_cached_workload(spec, tmp_path)
    assert workload.real_tuples == generate_workload(spec).real_tuples


def test_bench_workload_uses_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.WORKLOAD_CACHE_ENV, str(tmp_path))
    harness.bench_workload.cache_clear()  # defeat the in-process layer
    harness.bench_workload((0, 1), real_tuples_per_gpu=1 << 10)
    assert list(tmp_path.glob("workload-*.pkl"))
    harness.bench_workload.cache_clear()


def test_run_id_inherited_by_multiprocessing_workers(tmp_path):
    from repro.obs.meta import run_scope

    # Two work items force the Pool path; fig04 is analytic, so both
    # workers stay fast.  The figure artifact and the manifest must both
    # carry the parent's run ID even though workers may be spawned.
    with run_scope("join-cafe0123feed"):
        bench = run_benchmarks(
            figures=["fig04", "fig04"], jobs=2, out_dir=tmp_path
        )
    assert bench.ok
    artifact = json.loads((tmp_path / "figure_4.json").read_text())
    assert artifact["run"]["run_id"] == "join-cafe0123feed"
    manifest = json.loads((tmp_path / RUN_MANIFEST).read_text())
    assert manifest["run"]["run_id"] == "join-cafe0123feed"


def test_artifacts_unstamped_outside_a_run_scope(tmp_path, monkeypatch):
    from repro.obs.meta import RUN_ID_ENV

    monkeypatch.delenv(RUN_ID_ENV, raising=False)
    run_benchmarks(figures=["fig04"], jobs=1, out_dir=tmp_path)
    artifact = json.loads((tmp_path / "figure_4.json").read_text())
    assert "run_id" not in artifact["run"]
