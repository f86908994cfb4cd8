"""The outside-in tracer: attribution closes and patches are reversible.

Runs every workload at its benchmark size in-process (about half a
minute).  Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import trace as layer_trace  # noqa: E402  (benchmarks/e2e/trace.py)
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def tracer():
    installed = layer_trace.install()
    try:
        yield installed
    finally:
        installed.uninstall()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_sum_to_the_traced_call(tracer, name):
    bench = tracer.root(lambda: WORKLOADS[name](42))
    tracer.root(bench.call)  # warm-up, like the benchmark's traced pass
    tracer.snapshot()
    start = time.perf_counter()
    output = tracer.root(bench.call)
    wall = time.perf_counter() - start
    snapshot = tracer.snapshot()
    assert bench.check(output) is None
    total = sum(snapshot["self_s"].values())
    assert total == pytest.approx(wall, rel=0.02)
    # Attribution closes: the benchmark's own share stays small.
    assert snapshot["self_s"][layer_trace.ROOT] <= 0.10 * wall
    assert snapshot["counts"]["sim.engine.events"] > 0


def test_functions_are_rebound_everywhere_and_restored(monkeypatch):
    import repro.core.global_partition as global_partition
    import repro.core.mgjoin as mgjoin
    import repro.serve.fabric as fabric

    original = global_partition.execute_distribution
    late = types.ModuleType("repro._imported_while_traced")
    monkeypatch.setitem(sys.modules, late.__name__, late)
    tracer = layer_trace.install()
    try:
        wrapped = mgjoin.execute_distribution
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert fabric.execute_distribution is wrapped
        assert global_partition.execute_distribution is wrapped
        # What ``from ... import execute_distribution`` binds after install.
        late.execute_distribution = global_partition.execute_distribution
    finally:
        tracer.uninstall()
    assert mgjoin.execute_distribution is original
    assert fabric.execute_distribution is original
    assert late.execute_distribution is original


def test_nested_spans_split_self_time():
    tracer = layer_trace.LayerTracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.timed("inner", inner)

    def outer():
        traced_inner()
        time.sleep(0.01)

    tracer.root(tracer.timed("outer", outer))
    snapshot = tracer.snapshot()
    assert snapshot["self_s"]["inner"] >= 0.02
    assert 0.01 <= snapshot["self_s"]["outer"] < 0.02
    assert snapshot["counts"]["inner.calls"] == 1
