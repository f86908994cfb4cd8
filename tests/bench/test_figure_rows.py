"""Regenerated figure rows against the committed ``bench_results``.

The committed rows are the fixed point of every change that claims the
same results: a change that moves a row on purpose re-commits that
figure.  ``fig04`` is analytic; ``fig13`` runs UMJ, DPRJ and MG-Join
joins, so the workload generator and the data distribution feed it.
"""

import copy
import json
import pathlib

import pytest

from repro.bench import figure_differences, run_benchmarks

COMMITTED = pathlib.Path(__file__).resolve().parents[2] / "bench_results"


def test_regenerated_rows_equal_the_committed_rows(tmp_path):
    bench = run_benchmarks(figures=["fig04", "fig13"], jobs=1, out_dir=tmp_path)
    assert bench.ok
    for run in bench.figures:
        committed = COMMITTED / pathlib.Path(run.artifact).name
        assert figure_differences(committed, run.artifact) == [], run.figure


@pytest.fixture
def artifact():
    return json.loads((COMMITTED / "figure_13.json").read_text())


def test_run_and_perf_blocks_are_ignored(artifact):
    other = copy.deepcopy(artifact)
    other["run"] = {"version": "elsewhere"}
    other["perf"] = {"self_time_seconds": 1.0}
    assert figure_differences(artifact, other) == []


def test_a_float_one_ulp_off_is_a_difference(artifact):
    other = copy.deepcopy(artifact)
    value = other["rows"][3]["throughput_btps"]
    other["rows"][3]["throughput_btps"] = value + value * 2**-52
    assert figure_differences(artifact, other) == [
        f"row 3 throughput_btps: expected {value!r},"
        f" got {other['rows'][3]['throughput_btps']!r}"
    ]


def test_keys_rows_and_blocks_are_checked(artifact):
    other = copy.deepcopy(artifact)
    del other["rows"][0]["algorithm"]
    other["rows"].pop()
    other["notes"] = other["notes"] + ["extra"]
    del other["title"]
    lines = figure_differences(artifact, other)
    assert any(line.startswith("blocks:") for line in lines)
    assert any(line.startswith("notes:") for line in lines)
    assert f"rows: expected {len(artifact['rows'])}, got {len(other['rows'])}" in lines
    assert any(line.startswith("row 0: keys") for line in lines)
