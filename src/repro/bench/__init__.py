"""Benchmark harness: regenerate every table and figure of the paper.

Each ``fig*`` function in :mod:`repro.bench.figures` reruns one
experiment of the paper's §5 and returns a :class:`FigureResult` whose
rows mirror the figure's series.  The pytest-benchmark drivers under
``benchmarks/`` call these, print the tables and assert the paper's
qualitative claims (who wins, by roughly what factor).
"""

from repro.bench.harness import FigureResult, bench_workload
from repro.bench import figures
from repro.bench.regression import (
    GateResult,
    MetricComparison,
    collect_perf_metrics,
    compare,
    load_baseline,
    run_gate,
    run_gate_from_store,
    write_baseline,
)
from repro.bench.reporting import (
    figure_differences,
    format_markdown_table,
    save_figure_result,
)
from repro.bench.runner import BenchRun, FigureRun, run_benchmarks

__all__ = [
    "BenchRun",
    "FigureResult",
    "FigureRun",
    "GateResult",
    "MetricComparison",
    "bench_workload",
    "collect_perf_metrics",
    "compare",
    "figure_differences",
    "figures",
    "format_markdown_table",
    "load_baseline",
    "run_benchmarks",
    "run_gate",
    "run_gate_from_store",
    "save_figure_result",
    "write_baseline",
]
