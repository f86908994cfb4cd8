"""Rendering and persisting figure results."""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from repro.bench.harness import FigureResult
from repro.obs.meta import run_metadata

#: Artifact blocks that describe one regeneration (host, version,
#: self-time), not the figure: :func:`figure_differences` skips them.
RUN_BLOCKS = frozenset({"run", "perf"})


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


def figure_differences(expected, actual) -> list[str]:
    """How two figure artifacts differ, one line each; empty when equal.

    Each side is the path of a :func:`save_figure_result` JSON file or
    that file's loaded dict.  Every block but :data:`RUN_BLOCKS` must be
    present on both sides and equal.  Rows are compared one by one:
    same count, same keys, then every value with ``==``, so a float
    must match to the last bit.
    """
    expected, actual = _load_artifact(expected), _load_artifact(actual)
    lines = []
    blocks = set(expected) - RUN_BLOCKS
    if blocks != set(actual) - RUN_BLOCKS:
        lines.append(
            f"blocks: expected {sorted(blocks)},"
            f" got {sorted(set(actual) - RUN_BLOCKS)}"
        )
    for block in sorted((blocks & set(actual)) - {"rows"}):
        if expected[block] != actual[block]:
            lines.append(f"{block}: expected {expected[block]!r}, got {actual[block]!r}")
    rows, got_rows = expected.get("rows", []), actual.get("rows", [])
    if len(rows) != len(got_rows):
        lines.append(f"rows: expected {len(rows)}, got {len(got_rows)}")
    for index, (row, got) in enumerate(zip(rows, got_rows)):
        if set(row) != set(got):
            lines.append(f"row {index}: keys {sorted(row)} != {sorted(got)}")
            continue
        lines.extend(
            f"row {index} {key}: expected {row[key]!r}, got {got[key]!r}"
            for key in row
            if row[key] != got[key]
        )
    return lines


def _load_artifact(artifact) -> dict:
    if isinstance(artifact, dict):
        return artifact
    return json.loads(pathlib.Path(artifact).read_text())
