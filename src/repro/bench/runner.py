"""Parallel benchmark orchestrator (``repro bench``).

The 13 figure generators are independent, deterministic simulations, so
regenerating the evaluation is embarrassingly parallel.  This module
fans the selected figures out over a :mod:`multiprocessing` pool, stamps
every :class:`~repro.bench.harness.FigureResult` with its wall-clock
*self-time* (how long the generator took to run, as opposed to the
simulated seconds inside its rows), persists the usual per-figure
JSON/markdown artifacts plus one ``bench_run.json`` manifest, and can
feed the collected perf metrics straight into the
:mod:`repro.bench.regression` gate.

Workers share the on-disk workload cache
(:data:`repro.bench.harness.WORKLOAD_CACHE_ENV`): the first worker that
needs a given workload spec generates and pickles it; everyone else —
including later runs — just loads it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time
from dataclasses import dataclass, field

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import WORKLOAD_CACHE_ENV
from repro.bench.reporting import save_figure_result
from repro.obs.meta import RUN_ID_ENV, current_run_id, run_metadata

#: Manifest file written next to the per-figure artifacts.
RUN_MANIFEST = "bench_run.json"


@dataclass
class FigureRun:
    """One figure's outcome inside a bench run."""

    figure: str
    title: str
    self_time_seconds: float
    rows: int
    artifact: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BenchRun:
    """A whole ``repro bench`` invocation's outcome."""

    jobs: int
    wall_time_seconds: float
    figures: list[FigureRun] = field(default_factory=list)
    workload_cache: str | None = None

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.figures)

    @property
    def self_time_total_seconds(self) -> float:
        """Sum of per-figure self-times (serial-equivalent cost)."""
        return sum(run.self_time_seconds for run in self.figures)

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual wall time."""
        if self.wall_time_seconds <= 0:
            return 1.0
        return self.self_time_total_seconds / self.wall_time_seconds

    def to_dict(self) -> dict:
        return {
            "run": run_metadata(workload="figure-suite"),
            "jobs": self.jobs,
            "workload_cache": self.workload_cache,
            "wall_time_seconds": self.wall_time_seconds,
            "self_time_total_seconds": self.self_time_total_seconds,
            "parallel_speedup": self.speedup,
            "figures": {
                run.figure: {
                    "title": run.title,
                    "self_time_seconds": run.self_time_seconds,
                    "rows": run.rows,
                    "artifact": run.artifact,
                    "error": run.error,
                }
                for run in self.figures
            },
        }

    def render(self) -> str:
        lines = [
            f"bench run: {len(self.figures)} figures, {self.jobs} jobs,"
            f" wall {self.wall_time_seconds:.1f}s,"
            f" serial-equivalent {self.self_time_total_seconds:.1f}s"
            f" ({self.speedup:.1f}x)"
        ]
        width = max((len(run.figure) for run in self.figures), default=6)
        for run in sorted(self.figures, key=lambda r: r.figure):
            status = "FAILED: " + run.error if run.error else run.artifact
            lines.append(
                f"  {run.figure:<{width}}  {run.self_time_seconds:7.2f}s"
                f"  {run.rows:4d} rows  {status}"
            )
        return "\n".join(lines) + "\n"


def _run_one(
    name: str,
    out_dir: str,
    workload_cache: str | None,
    run_id: str | None = None,
) -> dict:
    """Worker entry point: regenerate one figure, timed. Top-level so
    it pickles under every multiprocessing start method."""
    if workload_cache:
        os.environ[WORKLOAD_CACHE_ENV] = workload_cache
    if run_id:
        # Re-assert the parent's run ID: fork inherits it through the
        # environment, but spawn workers start from a fresh interpreter
        # whose environment may have been scrubbed by the pool setup.
        os.environ[RUN_ID_ENV] = run_id
    started = time.perf_counter()
    try:
        result = ALL_FIGURES[name]()
    except Exception as exc:  # surfaced in the manifest, fails the run
        return {
            "figure": name,
            "title": "",
            "self_time_seconds": time.perf_counter() - started,
            "rows": 0,
            "artifact": "",
            "error": f"{type(exc).__name__}: {exc}",
        }
    result.self_time_seconds = time.perf_counter() - started
    artifact = save_figure_result(result, out_dir)
    return {
        "figure": name,
        "title": result.title,
        "self_time_seconds": result.self_time_seconds,
        "rows": len(result.rows),
        "artifact": str(artifact),
        "error": None,
    }


def run_benchmarks(
    figures: list[str] | None = None,
    jobs: int | None = None,
    out_dir: str | pathlib.Path = "bench_results",
    workload_cache: str | pathlib.Path | None = None,
) -> BenchRun:
    """Regenerate ``figures`` (default: all) across ``jobs`` processes.

    Returns the :class:`BenchRun`; the same information is persisted as
    ``<out_dir>/bench_run.json``.
    """
    names = list(figures) if figures else sorted(ALL_FIGURES)
    unknown = [name for name in names if name not in ALL_FIGURES]
    if unknown:
        raise ValueError(
            f"unknown figures {unknown}; have {sorted(ALL_FIGURES)}"
        )
    if jobs is None:
        jobs = min(len(names), os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = str(workload_cache) if workload_cache is not None else None
    run_id = current_run_id()
    work = [(name, str(out_dir), cache, run_id) for name in names]
    started = time.perf_counter()
    if jobs == 1 or len(names) == 1:
        records = [_run_one(*item) for item in work]
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            records = pool.starmap(_run_one, work)
    bench = BenchRun(
        jobs=jobs,
        wall_time_seconds=time.perf_counter() - started,
        figures=[FigureRun(**record) for record in records],
        workload_cache=cache,
    )
    manifest = out_dir / RUN_MANIFEST
    manifest.write_text(json.dumps(bench.to_dict(), indent=1) + "\n")
    return bench
