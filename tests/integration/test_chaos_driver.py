"""``repro chaos``: one handler over one driver, solo join or served batch."""

import json

import pytest

from repro.cli import main
import repro.faults.chaos as chaos_module
from repro.faults import (
    ChaosInputError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    run_chaos,
)
from repro.obs.export import validate_chrome_trace
from repro.serve import QueryRequest, synthetic_requests
from repro.topology import dgx1_topology
from repro.workloads import WorkloadSpec, generate_workload

#: A served batch small enough for a unit test.
SERVE_ARGS = [
    "chaos", "--serve", "--gpus", "4", "--queries", "2",
    "--min-in-flight", "2", "--real-tuples", "1K",
]


def test_cli_counters_equal_library_counters(tmp_path):
    """Every run gets a fresh routing policy, so no tie-break state
    leaks from the healthy run into the faulted one: the CLI and the
    library report the same fault counters for the same workload."""
    code = main([
        "chaos", "--preset", "gpu-crash", "--gpus", "8",
        "--tuples-per-gpu", "32M", "--real-tuples", "2K", "--seed", "42",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "chaos_report.json").read_text())
    machine = dgx1_topology()
    workload = generate_workload(
        WorkloadSpec(
            gpu_ids=tuple(machine.gpu_ids),
            logical_tuples_per_gpu=32 * 1024**2,
            real_tuples_per_gpu=2 * 1024,
            seed=42,
        )
    )
    report = run_chaos(machine, workload, "gpu-crash", seed=42)
    assert payload["counters"] == report.fault_counters


def test_serve_expect_loss_fails_when_no_query_recovered(capsys):
    code = main([
        "chaos", "--serve", "--preset", "nvlink-cut", "--queries", "2",
        "--min-in-flight", "2", "--real-tuples", "1K", "--expect-loss",
    ])
    assert code == 1
    assert "FAIL: --expect-loss" in capsys.readouterr().out


def test_serve_refuses_min_retention(capsys):
    code = main(
        SERVE_ARGS + ["--preset", "gpu-crash", "--min-retention", "0.5"]
    )
    assert code == 2
    assert "--min-retention" in capsys.readouterr().err


def test_serve_trace_and_expect_loss(capsys, tmp_path):
    trace = tmp_path / "serve_trace.json"
    code = main(
        SERVE_ARGS
        + ["--preset", "gpu-crash", "--expect-loss", "--trace", str(trace)]
    )
    assert code == 0
    assert "digest identity : OK" in capsys.readouterr().out
    payload = json.loads(trace.read_text())
    assert validate_chrome_trace(payload) == []
    names = {event["name"] for event in payload["traceEvents"]}
    assert "fault.inject" in names


def test_batch_refuses_a_solo_baseline(dgx1):
    """``healthy=`` is a solo join's baseline; a batch refuses it before
    any join runs instead of dropping it."""
    requests = synthetic_requests(2, gpus=2, tuples=1024)
    healthy = object()
    with pytest.raises(ChaosInputError, match="solo join only"):
        run_chaos(dgx1, requests, "gpu-crash", healthy=healthy)


def test_batch_report_has_no_single_join(dgx1):
    """A served query named like the solo join is still one query of
    the batch, never the report's ``healthy``/``faulted`` join."""
    requests = (
        QueryRequest(name="join", gpus=2, tuples=1024),
        QueryRequest(name="other", gpus=2, tuples=1024, seed=7),
    )
    report = run_chaos(
        dgx1, requests, "nvlink-brownout", min_in_flight=2, strict=False
    )
    assert set(report.verdicts) == {"join", "other"}
    with pytest.raises(AttributeError, match="served batch"):
        report.healthy
    with pytest.raises(AttributeError, match="served batch"):
        report.faulted


def test_plan_is_checked_before_any_reference_run(dgx1, monkeypatch):
    """A plan naming a GPU outside the workload fails fast, before the
    driver pays for a healthy reference join."""

    def no_reference(*args, **kwargs):
        raise AssertionError("a reference join ran before the plan check")

    monkeypatch.setattr(chaos_module, "healthy_reference", no_reference)
    plan = FaultPlan(
        "bad", (FaultEvent(FaultKind.GPU_CRASH, at=1e-3, gpu=7),)
    )
    workload = generate_workload(
        WorkloadSpec(gpu_ids=(0, 1), logical_tuples_per_gpu=1024,
                     real_tuples_per_gpu=1024)
    )
    with pytest.raises(FaultPlanError, match="gpu7"):
        run_chaos(dgx1, workload, plan)
    with pytest.raises(FaultPlanError, match="unknown preset"):
        run_chaos(dgx1, workload, "no-such-preset")
