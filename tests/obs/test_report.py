"""Observatory exporters: heatmaps, report rendering, artifacts."""

import json

import pytest

from repro.obs.analyze import (
    LinkTimeline,
    ascii_heatmap,
    attribute,
    audit_decisions,
    heatmap_csv,
    heatmap_json,
    render_bottleneck_report,
    render_regret_table,
    write_analysis,
)
from repro.obs.analyze.timeline import LinkSeries


def _tiny_timeline():
    timeline = LinkTimeline(horizon=2.0, num_buckets=4)
    timeline.series[0] = LinkSeries(
        link_id=0,
        label="gpu0->gpu1 [nvlink]",
        utilization=[1.0, 0.5, 0.0, 0.25],
        queue_delay=[0.0, 0.1, 0.1, 0.0],
        bytes=[100.0, 50.0, 0.0, 25.0],
    )
    timeline.series[1] = LinkSeries(
        link_id=1,
        label="gpu1->gpu0 [nvlink]",
        utilization=[0.0, 0.0, 0.0, 0.0],
        queue_delay=[0.0, 0.0, 0.0, 0.0],
        bytes=[0.0, 0.0, 0.0, 0.0],
    )
    return timeline


def test_ascii_heatmap_shades_by_utilization():
    text = ascii_heatmap(_tiny_timeline(), top=2)
    lines = text.splitlines()
    assert "gpu0->gpu1 [nvlink] |@+ :|" in lines[0]
    assert "43.8%" in lines[0]  # mean of the four buckets
    assert "shade:" in lines[-1]


def test_ascii_heatmap_queue_mode_normalizes_per_row():
    text = ascii_heatmap(_tiny_timeline(), top=1, queue=True)
    # Peak queue delay shades as saturated even though it is only 0.1 s.
    assert "| @@ |" in text


def test_ascii_heatmap_empty():
    assert "no link activity" in ascii_heatmap(LinkTimeline(0.0, 0))


def test_heatmap_csv_one_row_per_cell():
    lines = heatmap_csv(_tiny_timeline()).splitlines()
    assert lines[0].startswith("link,bucket,start,end,")
    assert len(lines) == 1 + 2 * 4


def test_heatmap_json_round_trips():
    payload = heatmap_json(_tiny_timeline())
    assert json.loads(json.dumps(payload)) == payload
    assert payload["num_buckets"] == 4
    assert payload["links"][0]["utilization"] == [1.0, 0.5, 0.0, 0.25]


def test_rendered_reports_and_artifacts(adaptive_run, tmp_path):
    timeline = adaptive_run.sampler.timeline(num_buckets=24)
    bottlenecks = attribute(adaptive_run.sampler, adaptive_run.report.cut, top=6)
    regret = audit_decisions(
        adaptive_run.machine, adaptive_run.observer, adaptive_run.sampler
    )

    heat = ascii_heatmap(timeline, top=6)
    assert "gpu" in heat and "%" in heat
    table = render_bottleneck_report(bottlenecks)
    assert "bottleneck attribution:" in table
    assert "bisection time share" in table
    assert "slowest flows" in table
    audit_text = render_regret_table(regret, top=5)
    assert "ARM decision audit" in audit_text
    assert "mean regret" in audit_text

    paths = write_analysis(
        tmp_path,
        timeline=timeline,
        bottlenecks=bottlenecks,
        regret=regret,
        metadata={"topology": "dgx1", "num_gpus": 8},
    )
    names = {path.name for path in paths}
    assert names == {"heatmap.csv", "heatmap.json", "bottlenecks.json", "regret.csv"}
    payload = json.loads((tmp_path / "bottlenecks.json").read_text())
    assert payload["run"] == {"topology": "dgx1", "num_gpus": 8}
    assert payload["regret"]["decisions"] == regret.decisions
    assert payload["phases"][0]["links"]
    regret_lines = (tmp_path / "regret.csv").read_text().splitlines()
    assert len(regret_lines) == 1 + regret.decisions


def test_write_analysis_without_regret(tmp_path):
    from repro.obs.analyze import BottleneckReport

    paths = write_analysis(
        tmp_path,
        timeline=_tiny_timeline(),
        bottlenecks=BottleneckReport(horizon=2.0),
    )
    names = {path.name for path in paths}
    assert "regret.csv" not in names
    payload = json.loads((tmp_path / "bottlenecks.json").read_text())
    assert "regret" not in payload and "run" not in payload


def test_run_metadata_and_config_hash():
    from repro.obs import config_hash, run_metadata
    from repro.sim import ShuffleConfig

    meta = run_metadata(
        topology="dgx1", num_gpus=8, seed=7, config=ShuffleConfig(), policy="x"
    )
    assert meta["topology"] == "dgx1"
    assert meta["num_gpus"] == 8
    assert meta["seed"] == 7
    assert meta["policy"] == "x"
    import repro

    assert meta["repro_version"] == repro.__version__
    assert "engine" not in meta
    assert len(meta["config_hash"]) == 12
    # Stable across key order, sensitive to values.
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert meta["config_hash"] == config_hash(ShuffleConfig())
