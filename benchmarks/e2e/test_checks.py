"""Correctness checks count failures instead of raising; compare's verdicts.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
from workloads import JoinSim, ShuffleMultinode  # noqa: E402


class SmallJoin(JoinSim):
    """The join-sim pipeline at a size that runs in well under a second."""

    logical_per_gpu = 1024 * 1024
    real_per_gpu = 4 * 1024


def test_wrong_probe_result_is_counted_not_raised(monkeypatch):
    import repro.core.mgjoin as mgjoin

    bench = SmallJoin(42)
    assert child.run_calls(bench, 1)["errors"] == []
    original = mgjoin.probe_partitions

    def off_by_one(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, matches=result.matches + 1)

    monkeypatch.setattr(mgjoin, "probe_partitions", off_by_one)
    report = child.run_calls(bench, 2)
    assert len(report["walls"]) == 2
    assert len(report["errors"]) == 2 and "reference says" in report["errors"][0]
    assert report["outputs"] == []


def test_raising_call_is_counted_not_raised(monkeypatch):
    import repro.core.mgjoin as mgjoin

    bench = SmallJoin(42)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(mgjoin, "probe_partitions", broken)
    report = child.run_calls(bench, 1)
    assert report["errors"] == ["RuntimeError: injected"]


def test_shuffle_multinode_reproduces_the_committed_perf_baseline():
    baseline = json.loads((ROOT / "BENCH_multinode.json").read_text())["metrics"]
    bench = ShuffleMultinode(42)
    outputs = bench.outputs(bench.call())
    assert outputs["elapsed"] * 1e3 == pytest.approx(
        baseline["shuffle.elapsed_ms"], rel=1e-12
    )
    assert outputs["mean_regret"] * 1e6 == pytest.approx(
        baseline["arm.mean_regret_us"], rel=1e-12
    )


def test_tally_counts_diverging_outputs_as_failures():
    tally = run.Tally()
    tally.add({"walls": [1.0, 1.0], "errors": [], "outputs_digest": ["a", "a"]})
    tally.add({"walls": [1.0, 1.0], "errors": ["bad"], "outputs_digest": ["b"]})
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_share == pytest.approx(0.5)


def _result(wall_samples, fingerprint="f", failed_share=0.0):
    return {
        "workloads": {
            "join-sim": {
                "e2e": {
                    "setup_s": run.summarize([1.0, 1.0, 1.0], "s"),
                    "first_s": run.summarize([1.0, 1.0, 1.0], "s"),
                    "wall_s": run.summarize(wall_samples, "s"),
                    "peak_rss_mb": run.summarize([100.0, 100.0, 100.0], "MB"),
                    "failed_share": {"value": failed_share, "unit": "ratio", "n": 10},
                },
                "sim_fingerprint": fingerprint,
                "counts": {"sim.engine.events": 5},
            }
        }
    }


def _verdicts(before, after):
    rows, breach = run.compare(before, after, run.load_spec())
    return {row.split()[1]: row for row in rows}, breach


def test_compare_passes_identical_runs():
    result = _result([1.0, 1.01, 0.99])
    rows, breach = _verdicts(result, result)
    assert not breach
    assert rows["wall_s"].endswith("ok")


def test_compare_flags_regression_beyond_the_bound():
    rows, breach = _verdicts(_result([1.0, 1.01, 0.99]), _result([1.3, 1.31, 1.29]))
    assert breach and rows["wall_s"].endswith("BREACH")


def test_compare_marks_noisy_metrics_unresolved():
    rows, breach = _verdicts(_result([0.5, 1.0, 1.5]), _result([0.6, 1.1, 1.6]))
    assert not breach and rows["wall_s"].endswith("unresolved")


def test_compare_flags_fingerprint_and_failure_changes():
    rows, breach = _verdicts(_result([1.0, 1.0, 1.0]),
                             _result([1.0, 1.0, 1.0], fingerprint="g"))
    assert breach and "DIFFERS" in rows["sim_fingerprint"]
    rows, breach = _verdicts(_result([1.0, 1.0, 1.0]),
                             _result([1.0, 1.0, 1.0], failed_share=0.1))
    assert breach and rows["failed_share"].endswith("BREACH")
