"""The benchmark harness and reporting layer."""

import json

import pytest

from repro.bench.harness import FigureResult, bench_workload
from repro.bench.reporting import format_markdown_table, save_figure_result


class TestFigureResult:
    def test_add_and_series(self):
        result = FigureResult("Fig X", "test")
        result.add(algo="a", gpus=2, value=1.0)
        result.add(algo="b", gpus=2, value=2.0)
        result.add(algo="a", gpus=4, value=3.0)
        assert len(result.series("algo", "a")) == 2
        assert result.column("value", where={"algo": "a"}) == [1.0, 3.0]

    def test_markdown_contains_rows_and_notes(self):
        result = FigureResult("Fig X", "a title")
        result.add(x=1, y=2.5)
        result.note("a note")
        text = result.to_markdown()
        assert "Fig X" in text and "a title" in text
        assert "| x | y |" in text
        assert "> a note" in text


class TestMarkdownTable:
    def test_empty(self):
        assert format_markdown_table([]) == "(no rows)\n"

    def test_heterogeneous_rows_union_columns(self):
        text = format_markdown_table([{"a": 1}, {"b": 2}])
        assert "| a | b |" in text

    def test_float_formatting(self):
        text = format_markdown_table([{"v": 123.456}, {"v": 1.23456}, {"v": 0.0123}])
        assert "123" in text
        assert "1.23" in text
        assert "0.0123" in text


class TestSaveFigureResult:
    def test_json_and_md_written(self, tmp_path):
        result = FigureResult("Figure 99", "save test")
        result.add(a=1)
        path = save_figure_result(result, tmp_path)
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["rows"] == [{"a": 1}]
        assert (tmp_path / "figure_99.md").exists()

    def test_slashes_in_names_sanitized(self, tmp_path):
        result = FigureResult("Ablation a/b", "slash test")
        result.add(a=1)
        path = save_figure_result(result, tmp_path)
        assert path.name == "ablation_a-b.json"

    def test_metric_snapshots_persisted(self, tmp_path):
        from repro.obs import Observer

        result = FigureResult("Figure 98", "metrics test")
        result.add(a=1)
        observer = Observer()
        observer.counter("probe.matches", gpu=0).inc(5)
        result.metric_snapshots["mgjoin-8gpus"] = observer.metrics.snapshot()
        path = save_figure_result(result, tmp_path)
        data = json.loads(path.read_text())
        snapshot = data["metrics"]["mgjoin-8gpus"]
        assert snapshot["counters"][0]["value"] == 5

    def test_no_metrics_key_without_snapshots(self, tmp_path):
        result = FigureResult("Figure 97", "no metrics")
        result.add(a=1)
        data = json.loads(save_figure_result(result, tmp_path).read_text())
        assert "metrics" not in data


class TestBenchWorkload:
    def test_cached_identity(self):
        a = bench_workload((0, 1), logical_tuples_per_gpu=4096,
                           real_tuples_per_gpu=1024)
        b = bench_workload((0, 1), logical_tuples_per_gpu=4096,
                           real_tuples_per_gpu=1024)
        assert a is b

    def test_different_parameters_differ(self):
        a = bench_workload((0, 1), logical_tuples_per_gpu=4096,
                           real_tuples_per_gpu=1024)
        b = bench_workload((0, 1), logical_tuples_per_gpu=4096,
                           real_tuples_per_gpu=1024, placement_zipf=0.5)
        assert a is not b


def test_fig04_runs_fast_and_has_shape():
    from repro.bench.figures import fig04_packet_size

    result = fig04_packet_size()
    assert len(result.rows) == 14  # 2 KB .. 16 MB doublings
    assert result.rows[0]["packet_kb"] == 2
    assert result.rows[-1]["packet_kb"] == 16384
