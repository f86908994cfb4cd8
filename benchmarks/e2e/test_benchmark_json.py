"""Schema checks for BENCHMARK.json against the benchmark's own code.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (the
tier-1 suite only collects ``tests/``).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import trace as layer_trace  # noqa: E402  (benchmarks/e2e/trace.py)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert (ROOT / SPEC["command"][1]).resolve().parent == HERE
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_units_and_counts():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_workloads_are_in_the_code_and_say_why():
    names = [entry["name"] for entry in SPEC["workloads"]]
    # A subset of the full run's workloads, in the same order.
    assert names == [name for name in WORKLOADS if name in names]
    assert len(names) >= 2
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"].strip() and "\n" not in entry["why"]
        assert len(entry["why"]) <= 200


def test_end_to_end_bounds():
    metrics = {entry["name"]: entry for entry in SPEC["end_to_end"]}
    assert set(metrics) == {"setup_s", "wall_s", "peak_rss_mb"}
    for entry in metrics.values():
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    assert metrics["setup_s"]["unit"] == "s"
    assert metrics["setup_s"]["better"] == "lower"
    assert metrics["setup_s"]["bound"] == max(e["bound"] for e in metrics.values())


def test_every_layer_metric_moves_an_e2e_metric_on_a_workload():
    e2e = {entry["name"] for entry in SPEC["end_to_end"]}
    workloads = {entry["name"] for entry in SPEC["workloads"]}
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        moves = layer_trace.LAYER_MOVES[entry["name"]]
        if entry["name"].startswith("bench."):
            assert moves is None
            continue
        metric, workload = moves
        assert metric in e2e, entry["name"]
        assert workload in workloads, entry["name"]


def _empty_snapshot() -> dict:
    return {
        "self_s": {span: 0.0 for span in layer_trace.SPANS},
        "counts": {"sim.engine.events": 0},
    }


@pytest.mark.parametrize("entry", SPEC["per_layer"], ids=lambda e: e["name"])
def test_layer_metric_is_produced_with_its_unit(entry):
    metrics = layer_trace.layer_metrics(
        _empty_snapshot(), 1.0, [_empty_snapshot()], [1.0], 1.0
    )
    assert metrics[entry["name"]][1] == entry["unit"]
