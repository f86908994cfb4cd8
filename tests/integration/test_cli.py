"""The command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_size


class TestParseSize:
    def test_plain_integers(self):
        assert parse_size("1024") == 1024

    def test_suffixes(self):
        assert parse_size("64K") == 64 * 1024
        assert parse_size("512M") == 512 * 1024 * 1024
        assert parse_size("2G") == 2 * 1024**3
        assert parse_size("1g") == 1024**3

    def test_fractional(self):
        assert parse_size("0.5M") == 512 * 1024

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("abc")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("0")


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_topology_command(capsys):
    assert main(["topology", "--machine", "dgx1"]) == 0
    out = capsys.readouterr().out
    assert "dgx-1" in out
    assert "175.6 GB/s" in out
    assert "12" in out  # staged pairs


def test_topology_dgx2(capsys):
    assert main(["topology", "--machine", "dgx2"]) == 0
    out = capsys.readouterr().out
    assert "dgx-2" in out and "16" in out


def test_join_command(capsys):
    code = main([
        "join", "--gpus", "2", "--tuples-per-gpu", "1M",
        "--real-tuples", "4K", "--algorithm", "mg-join",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mg-join" in out
    assert "throughput" in out


def test_join_command_umj(capsys):
    code = main([
        "join", "--gpus", "2", "--tuples-per-gpu", "64K",
        "--real-tuples", "4K", "--algorithm", "umj",
    ])
    assert code == 0
    assert "umj" in capsys.readouterr().out


def test_join_rejects_too_many_gpus():
    with pytest.raises(SystemExit):
        main(["join", "--gpus", "99"])


def test_shuffle_command(capsys):
    code = main([
        "shuffle", "--gpus", "4", "--bytes-per-flow", "8M",
        "--policy", "direct",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "direct" in out
    assert "busiest links" in out
    assert "a->b" in out and "b->a" in out  # per-direction bisection


def test_trace_command_stamps_metadata(capsys, tmp_path):
    import json

    out_path = tmp_path / "trace.json"
    code = main([
        "trace", "--gpus", "4", "--bytes-per-flow", "8M",
        "--out", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bisection" in out and "a->b" in out
    assert "p95=" in out  # histogram percentile lines in the summary
    trace = json.loads(out_path.read_text())
    run = trace["otherData"]["run"]
    assert run["topology"] == "dgx1"
    assert run["num_gpus"] == 4
    assert "repro_version" in run


def test_analyze_shuffle_command(capsys, tmp_path):
    code = main([
        "analyze", "--mode", "shuffle", "--gpus", "4",
        "--bytes-per-flow", "4M", "--hot-gpu", "0",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bottleneck attribution:" in out
    assert "ARM decision audit" in out
    assert "shade:" in out  # the heatmap legend
    for name in ("heatmap.csv", "heatmap.json", "bottlenecks.json", "regret.csv"):
        assert (tmp_path / name).exists()


def test_analyze_join_command(capsys):
    code = main([
        "analyze", "--mode", "join", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mg-join" in out
    assert "bottleneck attribution:" in out
    assert "ARM decision audit" in out


def test_perf_command_update_and_gate(capsys, tmp_path, monkeypatch):
    from repro.bench import regression

    # The canonical collection takes ~10 s; stub it for the CLI test
    # (the real collection is covered by benchmarks/bench_perf_gate.py).
    metrics = {"shuffle.throughput_gbps": 100.0, "arm.mean_regret_us": 10.0}
    monkeypatch.setattr(
        regression, "collect_perf_metrics", lambda **kwargs: dict(metrics)
    )
    baseline = tmp_path / "BENCH_test.json"
    assert main(["perf", "--update", "--baseline", str(baseline)]) == 0
    assert "baseline updated" in capsys.readouterr().out
    assert baseline.exists()
    assert main(["perf", "--baseline", str(baseline)]) == 0
    assert "PASS" in capsys.readouterr().out
    metrics["shuffle.throughput_gbps"] = 80.0  # -20%: must gate
    assert main(["perf", "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "REGRESSION" in out


def test_figure_command_unknown():
    with pytest.raises(SystemExit):
        main(["figure", "nope"])


def test_figure_command_fig04(capsys, tmp_path):
    code = main(["figure", "fig04", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "NVLink" in out
    assert (tmp_path / "figure_4.json").exists()


def test_tpch_command(capsys):
    code = main([
        "tpch", "--query", "q14", "--engine", "mg-join",
        "--scale-factor", "1", "--real-scale-factor", "0.01",
    ])
    assert code == 0
    assert "q14" in capsys.readouterr().out


def test_chaos_command_requires_scenario():
    with pytest.raises(SystemExit):
        main(["chaos"])


def test_chaos_command_preset(capsys, tmp_path):
    import json

    code = main([
        "chaos", "--preset", "gpu-straggler", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos scenario : gpu-straggler" in out
    assert "retention" in out
    report = json.loads((tmp_path / "chaos_report.json").read_text())
    assert report["correct"] is True
    assert report["counters"]["faults_injected"] == 1
    trace = json.loads((tmp_path / "chaos_trace.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert "fault.inject" in names


def test_chaos_command_plan_file(capsys, tmp_path):
    import json

    plan = {
        "name": "cut-0-1",
        "events": [{"kind": "link-fail", "at": 1e-4, "src": 0, "dst": 1}],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code = main([
        "chaos", "--plan", str(path), "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cut-0-1" in out


def test_chaos_command_min_retention_gate(capsys, tmp_path):
    code = main([
        "chaos", "--preset", "nvlink-cut", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--min-retention", "2.0",  # impossible floor: must gate
    ])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_analyze_join_with_chaos(capsys):
    code = main([
        "analyze", "--mode", "join", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--chaos", "nvlink-cut",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault / recovery events" in out
    assert "fault.inject" in out


def test_analyze_shuffle_with_chaos(capsys):
    code = main([
        "analyze", "--mode", "shuffle", "--gpus", "4",
        "--bytes-per-flow", "4M", "--chaos", "link-flap",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault / recovery events" in out


def test_experiments_run_list_compare_report(capsys, tmp_path):
    import json

    store = str(tmp_path / "exp")
    # The acceptance sweep, shrunk to test-sized workloads.
    code = main([
        "experiments", "run",
        "--sweep", "topology=dgx1", "policy=adaptive,static", "scale=2",
        "--tuples-per-gpu", "64K", "--real-tuples", "1K",
        "--store", store, "--jobs", "1",
    ])
    assert code == 0
    # Progress is notice output: it rides the logger on stderr so stdout
    # stays clean for --progress jsonl / --stream - machine output.
    err = capsys.readouterr().err
    assert "sweep: 2 point(s)" in err
    assert "sweep done: 2 ok, 0 failed" in err

    # One self-describing record per point, with full metadata.
    ledger = tmp_path / "exp" / "ledger.jsonl"
    lines = [json.loads(l) for l in ledger.read_text().splitlines()]
    assert len(lines) == 2
    run_ids = [line["run_id"] for line in lines]
    for run_id in run_ids:
        record = json.loads(
            (tmp_path / "exp" / "runs" / f"{run_id}.json").read_text()
        )
        assert record["meta"]["run_id"] == run_id
        assert record["metrics"]["join.throughput_btps"] > 0
        assert record["phases"] and record["config"]["topology"] == "dgx1"

    assert main(["experiments", "list", "--store", store]) == 0
    out = capsys.readouterr().out
    assert all(run_id in out for run_id in run_ids)

    # Identical simulations: the direction-aware diff passes.
    assert main([
        "experiments", "compare", run_ids[0], run_ids[1], "--store", store,
    ]) == 0
    out = capsys.readouterr().out
    assert "perf gate" in out and "PASS" in out
    assert "baseline : " in out and "policy=adaptive" in out

    assert main([
        "experiments", "report", "--store", store,
        "--metric", "join.throughput_btps",
    ]) == 0
    out = capsys.readouterr().out
    assert "join.throughput_btps:" in out and "dgx1/" in out


def test_experiments_rerun_is_deterministic(capsys, tmp_path):
    import json

    store = str(tmp_path / "exp")
    argv = [
        "experiments", "run", "--sweep", "policy=adaptive", "scale=2",
        "--tuples-per-gpu", "64K", "--real-tuples", "1K",
        "--store", store, "--jobs", "1",
    ]
    assert main(argv) == 0 and main(argv) == 0
    capsys.readouterr()
    lines = [
        json.loads(l)
        for l in (tmp_path / "exp" / "ledger.jsonl").read_text().splitlines()
    ]
    # Same configuration, same run ID; the re-run bumps the revision.
    assert len(lines) == 2
    assert lines[0]["run_id"] == lines[1]["run_id"]
    assert [line["revision"] for line in lines] == [1, 2]


def test_experiments_compare_flags_regression(capsys, tmp_path):
    import json

    from repro.experiments import ResultsStore, RunRecord

    store = ResultsStore(tmp_path / "exp")
    def record(seed, throughput, probe):
        return RunRecord.build(
            "join",
            config={"seed": seed},
            metrics={"join.throughput_btps": throughput},
            directions={"join.throughput_btps": "higher"},
            phases={"probe": probe},
        )
    a = store.put(record(1, 10.0, 0.010))
    b = store.put(record(2, 5.0, 0.050))
    code = main([
        "experiments", "compare", a.run_id, b.run_id,
        "--store", str(tmp_path / "exp"),
        "--out", str(tmp_path / "report.txt"),
    ])
    assert code == 1  # direction-aware: throughput halved
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "regression attribution:" in out and "probe" in out
    assert "REGRESSION" in (tmp_path / "report.txt").read_text()
    # Unknown run IDs are a usage error, not a crash.
    assert main([
        "experiments", "compare", "join-000000000000", a.run_id,
        "--store", str(tmp_path / "exp"),
    ]) == 2


def test_experiments_ingest_and_perf_gate_through_store(
    capsys, tmp_path, monkeypatch
):
    from repro.bench import regression

    metrics = {"shuffle.throughput_gbps": 100.0, "arm.mean_regret_us": 10.0}
    monkeypatch.setattr(
        regression, "collect_perf_metrics", lambda **kwargs: dict(metrics)
    )
    store = str(tmp_path / "exp")
    baseline = tmp_path / "BENCH_test.json"
    assert main(["perf", "--update", "--baseline", str(baseline),
                 "--store", store]) == 0
    out = capsys.readouterr().out
    assert "baseline updated" in out and "ledger record" in out

    # The gate reads its baseline through the store.
    assert main(["perf", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "baseline via store: perf-" in out and "PASS" in out
    metrics["shuffle.throughput_gbps"] = 80.0  # -20%: must gate
    assert main(["perf", "--store", store]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # An empty store is a clean error, not a traceback.
    assert main(["perf", "--store", str(tmp_path / "empty")]) == 2


def test_chaos_command_writes_store_record(capsys, tmp_path):
    store = str(tmp_path / "exp")
    code = main([
        "chaos", "--preset", "gpu-straggler", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--store", store,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ledger record" in out
    from repro.experiments import ResultsStore

    record = ResultsStore(store).latest(kind="chaos")
    assert record is not None
    assert record.config["scenario"] == "gpu-straggler"
    assert record.metrics["chaos.throughput_retention"] > 0
    assert record.telemetry["digest_match"] is True


def test_chaos_command_corruption_preset_verified(capsys, tmp_path):
    import json

    code = main([
        "chaos", "--preset", "payload-corrupt", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified integrity layer active" in out
    report = json.loads((tmp_path / "chaos_report.json").read_text())
    assert report["correct"] is True
    assert report["integrity"]["verified"] is True
    assert report["healthy_digest"] == report["faulted_digest"]


def corruption_plan_file(tmp_path):
    """Whole-run magnitude-1.0 corruption on every loaded 4-GPU link."""
    import json

    plan = {
        "name": "corrupt-everything",
        "events": [
            {"kind": "payload-corrupt", "at": 0.0, "duration": 10.0,
             "src": src, "dst": dst, "magnitude": 1.0}
            for src, dst in ((0, 3), (1, 2), (2, 3))
        ],
    }
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(plan))
    return path


def test_chaos_command_exit_3_on_silent_corruption(capsys, tmp_path):
    import json

    path = corruption_plan_file(tmp_path)
    code = main([
        "chaos", "--plan", str(path), "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--no-verify", "--out-dir", str(tmp_path),
    ])
    assert code == 3
    out = capsys.readouterr().out
    assert "SILENT CORRUPTION" in out
    report = json.loads((tmp_path / "chaos_report.json").read_text())
    assert report["correct"] is False
    assert report["integrity"]["silent_corruption"] is True
    assert report["integrity"]["corrupt_delivered"] > 0


def test_chaos_command_verify_repairs_same_plan(capsys, tmp_path):
    path = corruption_plan_file(tmp_path)
    code = main([
        "chaos", "--plan", str(path), "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K", "--verify",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "correctness    : OK" in out


def test_chaos_command_exit_2_on_conflicting_plan(capsys, tmp_path):
    import json

    plan = {
        "name": "fail-twice",
        "events": [
            {"kind": "link-fail", "at": 1e-5, "src": 0, "dst": 3},
            {"kind": "link-fail", "at": 2e-5, "src": 0, "dst": 3},
        ],
    }
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(plan))
    code = main([
        "chaos", "--plan", str(path), "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "already removed by" in err


def test_chaos_command_checksum_alert_fires(capsys, tmp_path):
    import json

    path = corruption_plan_file(tmp_path)
    alerts = tmp_path / "alerts.jsonl"
    code = main([
        "chaos", "--plan", str(path), "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--verify", "--alerts", str(alerts),
    ])
    assert code == 0
    fired = [json.loads(line) for line in alerts.read_text().splitlines()]
    assert any(alert["rule"] == "checksum-failure" for alert in fired)


def test_chaos_fuzz_command(capsys, tmp_path):
    import json

    code = main([
        "chaos", "fuzz", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--seed", "8", "--budget", "2", "--verify",
        "--out-dir", str(tmp_path), "--store", str(tmp_path / "store"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict        : OK" in out
    report = json.loads((tmp_path / "fuzz_report.json").read_text())
    assert report["ok"] is True
    assert report["plans_run"] == 2
    from repro.experiments import ResultsStore

    record = ResultsStore(tmp_path / "store").latest(kind="chaos-fuzz")
    assert record is not None
    assert record.metrics["fuzz.failures"] == 0


def test_chaos_fuzz_is_deterministic(capsys, tmp_path):
    import json

    argv = [
        "chaos", "fuzz", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--seed", "8", "--budget", "2", "--verify",
    ]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    first = json.loads((tmp_path / "a" / "fuzz_report.json").read_text())
    second = json.loads((tmp_path / "b" / "fuzz_report.json").read_text())
    first.pop("run"), second.pop("run")  # wall-clock metadata differs
    assert first == second


def test_chaos_fuzz_writes_minimized_reproducer(capsys, tmp_path):
    import json

    from repro.faults import FaultPlan

    # With verification off, corruption plans are caught by the audit —
    # a guaranteed failure for the shrinker to minimize.
    code = main([
        "chaos", "fuzz", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--seed", "8", "--budget", "1", "--no-verify",
        "--out-dir", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out
    report = json.loads((tmp_path / "fuzz_report.json").read_text())
    assert report["ok"] is False
    (failure,) = report["failures"]
    reproducer = tmp_path / f"{failure['plan']['name']}.min.json"
    plan = FaultPlan.from_file(reproducer)  # loadable as a plan file
    assert len(plan.events) <= len(failure["plan"]["events"])


def test_serve_command_synthetic(capsys, tmp_path):
    import json

    report_path = tmp_path / "serve.json"
    code = main([
        "serve", "--synthetic", "3", "--gpus", "2", "--tuples", "1K",
        "--max-in-flight", "2", "--json", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "completed            : 3" in out
    report = json.loads(report_path.read_text())
    assert report["exit_code"] == 0
    assert {q["status"] for q in report["queries"]} == {"completed"}
    assert not any("integrity" in q for q in report["queries"])


def test_serve_command_single_gpu_queries(tmp_path):
    """One-GPU queries shuffle nothing; they still complete cleanly."""
    import json

    report_path = tmp_path / "single-gpu.json"
    code = main([
        "serve", "--synthetic", "2", "--gpus", "1", "--tuples", "1K",
        "--json", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert [q["status"] for q in report["queries"]] == ["completed"] * 2
    assert not any("integrity" in q for q in report["queries"])


def test_serve_command_exits_3_on_silent_corruption(capsys, tmp_path):
    """Corruption on the default, unverified transport is not a clean
    serve: exit 3 (as ``repro chaos``) and per-query integrity stats."""
    import json

    plan = tmp_path / "corrupt.json"
    plan.write_text(json.dumps({
        "name": "corrupt-three-links", "seed": 0,
        "events": [
            {"kind": "payload-corrupt", "at": 0.0, "src": src, "dst": dst,
             "duration": 1.0, "magnitude": 1.0}
            for src, dst in ((0, 3), (1, 2), (2, 3))
        ],
    }))
    report_path = tmp_path / "corrupt-serve.json"
    code = main([
        "serve", "--synthetic", "4", "--gpus", "4", "--tuples", "4K",
        "--plan", str(plan), "--json", str(report_path),
    ])
    assert code == 3
    assert "SILENT CORRUPTION" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["exit_code"] == 3
    assert len(report["queries"]) == 4
    for query in report["queries"]:
        assert query["status"] == "completed"
        assert query["integrity"]["silent_corruption"] is True
        assert query["integrity"]["corrupt_delivered"] > 0


def test_serve_command_requires_one_input_source():
    with pytest.raises(SystemExit):
        main(["serve"])
    with pytest.raises(SystemExit):
        main(["serve", "requests.json", "--synthetic", "2"])


def test_serve_command_retry_budget_exhaustion(capsys, tmp_path):
    """The retry-exhaustion regression: the victim fails alone with a
    structured status and exit code 1 while its sibling's digest is
    untouched."""
    import json

    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps({"requests": [
        {"name": "victim", "gpu_ids": [0, 1], "tuples": 4096, "seed": 7},
        {"name": "bystander", "gpu_ids": [4, 5], "tuples": 4096, "seed": 8},
    ]}))
    plan = tmp_path / "blackout.json"
    plan.write_text(json.dumps({
        "name": "blackout-01", "seed": 42,
        "events": [{"kind": "link-blackout", "at": 0.0, "src": 0,
                    "dst": 1, "duration": 0.005}],
    }))
    argv = [
        "serve", str(requests), "--policy", "direct",
        "--plan", str(plan),
    ]
    healthy_path = tmp_path / "healthy.json"
    assert main(argv + ["--json", str(healthy_path)]) == 0
    code = main(argv + ["--retry-budget", "0",
                        "--json", str(tmp_path / "starved.json")])
    assert code == 1
    capsys.readouterr()
    healthy = json.loads(healthy_path.read_text())
    starved = json.loads((tmp_path / "starved.json").read_text())
    by_name = {q["name"]: q for q in starved["queries"]}
    assert by_name["victim"]["status"] == "retry-budget-exhausted"
    assert by_name["bystander"]["status"] == "completed"
    healthy_by_name = {q["name"]: q for q in healthy["queries"]}
    assert (by_name["bystander"]["match_digest"]
            == healthy_by_name["bystander"]["match_digest"])


def test_serve_command_rejects_bad_inputs(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["serve", str(bad)]) == 2


def test_chaos_serve_command_gate(capsys, tmp_path):
    import json

    store = tmp_path / "store"
    code = main([
        "chaos", "--serve", "--preset", "gpu-crash", "--gpus", "4",
        "--real-tuples", "1K", "--queries", "12",
        "--out-dir", str(tmp_path), "--store", str(store),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "digest identity : OK" in out
    report = json.loads((tmp_path / "serve_chaos_report.json").read_text())
    assert report["correct"] is True
    assert report["in_flight_peak"] >= 12
    assert report["recovered_queries"]
    from repro.experiments.store import ResultsStore

    record = ResultsStore(store).latest(kind="serve-chaos")
    assert record is not None
    assert record.metrics["serve.chaos_correct"] == 1.0


def test_store_ingests_the_chaos_reports_the_cli_writes(capsys, tmp_path):
    from repro.experiments.store import ResultsStore

    # A served corruption batch and a fuzz campaign, each written with
    # --out-dir and recorded with --store in one run.
    assert main([
        "chaos", "--serve", "--preset", "payload-corrupt", "--gpus", "4",
        "--real-tuples", "1K", "--queries", "12",
        "--out-dir", str(tmp_path), "--store", str(tmp_path / "direct"),
    ]) == 0
    assert main([
        "chaos", "fuzz", "--gpus", "4",
        "--tuples-per-gpu", "1M", "--real-tuples", "4K",
        "--seed", "8", "--budget", "1", "--verify",
        "--out-dir", str(tmp_path), "--store", str(tmp_path / "direct"),
    ]) == 0
    capsys.readouterr()
    direct = ResultsStore(tmp_path / "direct")
    ingested = ResultsStore(tmp_path / "ingested")
    for name, kind in (
        ("serve_chaos_report.json", "serve-chaos"),
        ("fuzz_report.json", "chaos-fuzz"),
    ):
        record = ingested.ingest(tmp_path / name)
        assert record.kind == kind
        expected = direct.latest(kind=kind)
        assert record.run_id == expected.run_id
        assert record.metrics == expected.metrics


def test_chaos_serve_requires_a_scenario():
    with pytest.raises(SystemExit):
        main(["chaos", "--serve", "--gpus", "4"])


@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "1e400G"])
def test_parse_size_rejects_non_finite_sizes(text):
    import argparse

    with pytest.raises(argparse.ArgumentTypeError, match="cannot parse"):
        parse_size(text)


def test_shuffle_rejects_an_infinite_size(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["shuffle", "--bytes-per-flow", "inf"])
    assert excinfo.value.code == 2
    assert "cannot parse size 'inf'" in capsys.readouterr().err


# Every bad-input exit goes through one path: one stderr line, code 2.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["join", "--gpus", "0"], "--gpus must be 1..8"),
        (["chaos"], "chaos needs --preset NAME or --plan PATH"),
        (
            ["chaos", "fuzz", "--gpus", "1", "--tuples-per-gpu", "64K",
             "--real-tuples", "4K", "--budget", "1"],
            "chaos fuzz needs a workload that shuffles data",
        ),
        (["serve"], "serve needs a request file or --synthetic N (not both)"),
        (
            ["serve", "requests.json", "--synthetic", "2"],
            "serve needs a request file or --synthetic N (not both)",
        ),
        (
            ["experiments", "run", "--sweep", "bogus", "--store", "TMP"],
            "bad sweep token 'bogus'; want key=v1[,v2,...]",
        ),
        (["bench", "--figures", "nope", "--out-dir", "TMP"], "unknown figures"),
        (["figure", "nope"], "unknown figure 'nope'"),
        (
            ["analyze", "--mode", "shuffle", "--gpus", "4", "--hot-gpu", "99"],
            "--hot-gpu must be one of the selected GPUs [0, 1, 2, 3]",
        ),
        (
            ["analyze", "--gpus", "2", "--tuples-per-gpu", "64K",
             "--real-tuples", "4K", "--hot-gpu", "99"],
            "--hot-gpu applies to --mode shuffle only",
        ),
        (
            ["analyze", "--gpus", "2", "--tuples-per-gpu", "64K",
             "--real-tuples", "4K", "--bytes-per-flow", "16M"],
            "--bytes-per-flow applies to --mode shuffle only",
        ),
        (
            ["analyze", "--gpus", "1", "--tuples-per-gpu", "64K",
             "--real-tuples", "4K", "--chaos", "gpu-crash"],
            "analyze --chaos needs a workload that shuffles data",
        ),
    ],
    ids=[
        "gpus", "chaos-scenario", "fuzz-no-shuffle", "serve-no-input",
        "serve-two-inputs", "sweep", "bench-figures", "figure", "hot-gpu",
        "join-hot-gpu", "join-bytes-per-flow", "analyze-chaos-no-shuffle",
    ],
)
def test_bad_input_exits_2(argv, message, capsys, tmp_path):
    argv = [str(tmp_path) if arg == "TMP" else arg for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in lines[0], lines
    assert captured.out == ""
