"""Observatory exporters: link×time heatmap (ASCII/CSV/JSON) + reports.

The heatmap answers the question Figure 8 asks — *is the bisection
kept busy over time?* — at link granularity: one row per link, one
column per time bucket, shaded by wire utilization.  The same buckets
export to CSV (for pandas) and JSON (for dashboards), and the
bottleneck / regret reports render as terminal tables.
"""

from __future__ import annotations

import io
import json
import pathlib

from repro.obs.analyze.attribution import BottleneckReport
from repro.obs.analyze.regret import RegretReport
from repro.obs.analyze.timeline import LinkTimeline

#: Shade ramp for utilization 0.0 -> 1.0.
_SHADES = " .:-=+*#%@"


def _shade(value: float) -> str:
    index = min(len(_SHADES) - 1, int(value * len(_SHADES)))
    return _SHADES[index]


def ascii_heatmap(
    timeline: LinkTimeline, top: int = 12, queue: bool = False
) -> str:
    """Link×time utilization heatmap for the terminal.

    Rows are the busiest links; each cell shades one time bucket's
    wire utilization (`` `` idle .. ``@`` saturated).  With ``queue``
    the cells shade queue delay relative to the row's own maximum
    instead — useful to see congestion *waves*.
    """
    ranked = timeline.ranked(top)
    if not ranked or timeline.num_buckets == 0:
        return "(no link activity recorded)\n"
    label_width = max(len(series.label) for series in ranked)
    lines = []
    for series in ranked:
        if queue:
            peak = max(series.queue_delay, default=0.0)
            values = [
                (delay / peak if peak > 0 else 0.0)
                for delay in series.queue_delay
            ]
        else:
            values = series.utilization
        cells = "".join(_shade(value) for value in values)
        mean = series.mean_utilization
        lines.append(f"{series.label:>{label_width}} |{cells}| {mean * 100:5.1f}%")
    scale = (
        f"{'':>{label_width}}  0"
        f"{'':{max(1, timeline.num_buckets - 10)}}"
        f"{timeline.horizon * 1e3:.2f} ms"
    )
    legend = f"{'':>{label_width}}  shade: ' '=idle .. '@'=saturated"
    return "\n".join(lines + [scale, legend]) + "\n"


def heatmap_csv(timeline: LinkTimeline) -> str:
    """Flat CSV: one row per (link, bucket)."""
    out = io.StringIO()
    out.write("link,bucket,start,end,utilization,queue_delay,bytes\n")
    width = timeline.bucket_width
    for series in timeline.ranked():
        for bucket in range(timeline.num_buckets):
            out.write(
                f"{series.label},{bucket},{bucket * width:.9f},"
                f"{(bucket + 1) * width:.9f},"
                f"{series.utilization[bucket]:.6f},"
                f"{series.queue_delay[bucket]:.9f},"
                f"{series.bytes[bucket]:.1f}\n"
            )
    return out.getvalue()


def heatmap_json(timeline: LinkTimeline) -> dict:
    """JSON-ready heatmap: bucket grid plus per-link series."""
    return {
        "horizon_seconds": timeline.horizon,
        "num_buckets": timeline.num_buckets,
        "bucket_seconds": timeline.bucket_width,
        "links": [
            {
                "link": series.label,
                "utilization": [round(u, 6) for u in series.utilization],
                "queue_delay": [round(q, 9) for q in series.queue_delay],
                "bytes": [round(b, 1) for b in series.bytes],
            }
            for series in timeline.ranked()
        ],
    }


def render_bottleneck_report(report: BottleneckReport, top_links: int = 5) -> str:
    """Terminal table: per-phase saturated links + bisection shares."""
    lines = ["bottleneck attribution:"]
    if not report.phases:
        lines.append("  (no phase activity recorded)")
    for attribution in report.phases:
        phase = attribution.phase
        lines.append(
            f"  phase {phase.name!r}  [{phase.start * 1e3:.2f}, "
            f"{phase.end * 1e3:.2f}) ms  "
            f"bisection time share {attribution.bisection_time_share * 100:.1f}%  "
            f"utilization a->b {attribution.bisection_utilization_ab * 100:.1f}% / "
            f"b->a {attribution.bisection_utilization_ba * 100:.1f}%  "
            f"queueing share {attribution.queueing_share * 100:.1f}%"
        )
        for link in attribution.links[:top_links]:
            tag = f" [bisection {link.crossing}]" if link.crossing else ""
            lines.append(
                f"    {link.label:<28} {link.utilization * 100:5.1f}% busy  "
                f"{link.bytes / 1e9:7.2f} GB  "
                f"queue/tx {link.queueing_share * 100:5.1f}%{tag}"
            )
    if report.flows:
        lines.append("slowest flows (queueing vs transmission):")
        for row in report.flows[:5]:
            lines.append(
                f"    gpu{row.flow_src}->gpu{row.flow_dst}  "
                f"{row.packets:4d} pkts  "
                f"latency {row.mean_latency * 1e3:7.3f} ms  "
                f"queueing {row.queueing_share * 100:5.1f}%"
            )
    return "\n".join(lines) + "\n"


def render_regret_table(report: RegretReport, top: int = 10) -> str:
    """Terminal table: audit aggregate + worst per-batch regrets."""
    lines = [
        f"ARM decision audit ({report.policy or 'unknown policy'}):",
        f"  decisions {report.decisions}  "
        f"optimal {report.optimal_share * 100:.1f}%  "
        f"mean regret {report.mean_regret * 1e6:.2f} us  "
        f"p95 {report.percentile_regret(95) * 1e6:.2f} us  "
        f"total {report.total_regret * 1e3:.3f} ms",
    ]
    correlation = report.staleness_regret_correlation
    if correlation is not None:
        lines.append(f"  staleness->regret correlation {correlation:+.3f}")
    worst = report.worst(top)
    if worst:
        lines.append("  worst batches (time, flow, chosen vs best, regret):")
        for row in worst:
            marker = "=" if row.was_optimal else "!"
            lines.append(
                f"    {marker} {row.time * 1e3:9.3f} ms  "
                f"gpu{row.src}->gpu{row.dst}  "
                f"{row.chosen:<14} vs {row.best:<14} "
                f"{row.regret * 1e6:8.2f} us"
            )
    return "\n".join(lines) + "\n"


def regret_csv(report: RegretReport) -> str:
    out = io.StringIO()
    out.write(
        "time,src,dst,policy,chosen,best,realized_chosen,realized_best,"
        "regret,batch_bytes,staleness\n"
    )
    for row in report.rows:
        out.write(
            f"{row.time:.9f},{row.src},{row.dst},{row.policy},"
            f"{row.chosen},{row.best},{row.realized_chosen:.9f},"
            f"{row.realized_best:.9f},{row.regret:.9f},"
            f"{row.batch_bytes},{row.staleness:.9f}\n"
        )
    return out.getvalue()


def write_analysis(
    out_dir: str | pathlib.Path,
    *,
    timeline: LinkTimeline,
    bottlenecks: BottleneckReport,
    regret: RegretReport | None = None,
    metadata: dict | None = None,
) -> list[pathlib.Path]:
    """Persist every observatory artifact under ``out_dir``.

    Writes ``heatmap.csv``, ``heatmap.json``, ``bottlenecks.json`` and
    (when a regret audit ran) ``regret.csv``; returns the paths.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []

    def _write(name: str, text: str) -> None:
        path = out / name
        path.write_text(text)
        written.append(path)

    _write("heatmap.csv", heatmap_csv(timeline))
    _write("heatmap.json", json.dumps(heatmap_json(timeline), indent=1))
    payload = bottlenecks.to_dict()
    if metadata:
        payload = {"run": metadata, **payload}
    if regret is not None:
        payload["regret"] = regret.to_dict()
        _write("regret.csv", regret_csv(regret))
    _write("bottlenecks.json", json.dumps(payload, indent=1))
    return written
