"""Rendering and persisting figure results."""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from repro.bench.harness import FigureResult
from repro.obs.meta import run_metadata


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_markdown_table(rows: list[dict]) -> str:
    """Render homogeneous dict rows as a GitHub-flavoured table."""
    if not rows:
        return "(no rows)\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| "
            + " | ".join(_format_value(row.get(c, "")) for c in columns)
            + " |"
        )
    return "\n".join(lines) + "\n"


def save_figure_result(
    result: FigureResult, directory: str | pathlib.Path = "bench_results"
) -> pathlib.Path:
    """Persist a figure's rows as JSON + markdown for EXPERIMENTS.md."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (
        result.figure.lower()
        .replace(" ", "_")
        .replace(".", "")
        .replace("/", "-")
    )
    payload = {
        "figure": result.figure,
        "title": result.title,
        # Self-describing artifact: version/python and — when a sweep
        # or bench run is in scope — the inherited run_id stamp.
        "run": run_metadata(),
        "rows": result.rows,
        "notes": result.notes,
    }
    if result.self_time_seconds is not None:
        payload["perf"] = {"self_time_seconds": result.self_time_seconds}
    if result.metric_snapshots:
        payload["metrics"] = result.metric_snapshots
    json_path = out_dir / f"{stem}.json"
    _write_atomic(json_path, json.dumps(payload, indent=2, default=str))
    _write_atomic(out_dir / f"{stem}.md", result.to_markdown())
    return json_path


def _write_atomic(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to a sibling temp file, then rename it over ``path``.

    Concurrent writers of one figure (parallel sweep workers) each
    replace the file whole, so a reader never sees interleaved bytes.
    """
    with tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=f".{path.name}.", suffix=".tmp", delete=False
    ) as handle:
        handle.write(text)
    os.replace(handle.name, path)
