"""Shared infrastructure for the figure benchmarks."""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.relation import JoinWorkload
from repro.obs.meta import config_hash
from repro.workloads import WorkloadSpec, generate_workload

#: Environment variable naming a directory for the on-disk workload
#: cache.  When set, generated workloads are pickled there keyed by a
#: hash of their spec, so every parallel bench worker (and every later
#: run) loads a sweep's inputs instead of regenerating them.
WORKLOAD_CACHE_ENV = "REPRO_WORKLOAD_CACHE"

#: The paper's per-GPU input: 512M tuples per relation (§5.1).
PAPER_TUPLES_PER_GPU = 512 * 1024 * 1024
#: Real tuples materialized per GPU in bench runs; large enough for
#: smooth histograms, small enough to keep a full figure under minutes.
BENCH_REAL_TUPLES = 1 << 16


@dataclass
class FigureResult:
    """Rows of one regenerated figure, ready for printing/saving."""

    figure: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Optional per-run metric snapshots (label -> registry snapshot),
    #: persisted next to the rows by ``save_figure_result``.
    metric_snapshots: dict[str, dict] = field(default_factory=dict)
    #: Wall-clock seconds this figure took to regenerate (*self-time*,
    #: as opposed to the simulated seconds inside the rows).  Stamped
    #: by the parallel runner; ``None`` when nobody timed the run.
    self_time_seconds: float | None = None

    def add(self, **row) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def series(self, key: str, value) -> list[dict]:
        """Rows whose ``key`` column equals ``value``."""
        return [row for row in self.rows if row.get(key) == value]

    def column(self, name: str, where: dict | None = None) -> list:
        rows = self.rows
        if where:
            rows = [
                row
                for row in rows
                if all(row.get(k) == v for k, v in where.items())
            ]
        return [row[name] for row in rows]

    def to_markdown(self) -> str:
        from repro.bench.reporting import format_markdown_table

        header = f"### {self.figure}: {self.title}\n\n"
        body = format_markdown_table(self.rows)
        notes = "".join(f"\n> {note}" for note in self.notes)
        return header + body + notes


@lru_cache(maxsize=32)
def bench_workload(
    gpu_ids: tuple[int, ...],
    logical_tuples_per_gpu: int = PAPER_TUPLES_PER_GPU,
    real_tuples_per_gpu: int = BENCH_REAL_TUPLES,
    placement_zipf: float = 0.0,
    key_zipf: float = 0.0,
    seed: int = 42,
) -> JoinWorkload:
    """Cached workload generation so figures sharing inputs reuse them.

    Two layers: an in-process ``lru_cache`` (keyed on these primitive
    arguments — machine objects never key this cache, so nothing leaks
    across sweeps) and, when :data:`WORKLOAD_CACHE_ENV` names a
    directory, an on-disk pickle cache keyed by the spec's config hash
    that parallel bench workers share.
    """
    spec = WorkloadSpec(
        gpu_ids=gpu_ids,
        logical_tuples_per_gpu=logical_tuples_per_gpu,
        real_tuples_per_gpu=real_tuples_per_gpu,
        placement_zipf=placement_zipf,
        key_zipf=key_zipf,
        seed=seed,
    )
    cache_dir = os.environ.get(WORKLOAD_CACHE_ENV)
    if not cache_dir:
        return generate_workload(spec)
    return _disk_cached_workload(spec, pathlib.Path(cache_dir))


def _disk_cached_workload(
    spec: WorkloadSpec, cache_dir: pathlib.Path
) -> JoinWorkload:
    path = cache_dir / f"workload-{config_hash(spec)}.pkl"
    if path.exists():
        try:
            return pickle.loads(path.read_bytes())
        except Exception:
            pass  # corrupt / truncated entry: regenerate below
    workload = generate_workload(spec)
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Write-then-rename so concurrent workers racing on one entry never
    # read a half-written pickle.
    fd, tmp_name = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(workload, handle)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
    return workload
