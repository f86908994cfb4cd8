"""Perf-regression gate: the committed BENCH baselines must hold.

Collects the canonical perf metrics (skewed shuffle + small MG-Join,
all deterministic simulation) for each gated workload and compares
them against its committed baseline — ``BENCH_dgx1-8gpu.json``,
``BENCH_dgx2-16gpu.json`` and ``BENCH_multinode.json``.  Any gated
metric moving more than 10% in its bad direction fails the build;
refresh a baseline with ``python -m repro perf --workload <name>
--update`` when a change is intentional.

One metric is wall-clock rather than simulation output:
``perf.self_time_seconds``, the collection's own runtime.  It gates
hot-path performance with the generous 50% band from
``regression.METRIC_TOLERANCES`` so shared-CI noise can't flake the
build while a real slowdown of the simulator still fails it.  The
committed budgets were recorded under a since-deleted, slower engine
mode, so they are upper bounds for the one engine left.
"""

import pytest

from repro.bench import regression


@pytest.mark.parametrize("workload", sorted(regression.PERF_WORKLOADS))
def test_perf_gate_against_committed_baseline(workload):
    result = regression.run_gate(workload=workload)
    print()
    print(result.render())
    assert result.ok, (
        f"perf regression against committed {workload} baseline (see table)"
    )
