"""The ARM decision audit: counterfactual replay and regret."""

import pytest

from repro.obs.analyze import RegretReport, audit_decisions
from repro.obs.analyze.regret import DecisionAudit, realized_arm


def test_audit_covers_every_decision(adaptive_run):
    audit = audit_decisions(
        adaptive_run.machine, adaptive_run.observer, adaptive_run.sampler
    )
    decisions = adaptive_run.observer.spans.find_instants("arm.decision")
    assert audit.decisions == len(decisions) > 0
    assert audit.policy == "mg-join"
    times = [row.time for row in audit.rows]
    assert times == sorted(times)


def test_regret_is_nonnegative_and_zero_when_optimal(adaptive_run):
    audit = audit_decisions(
        adaptive_run.machine, adaptive_run.observer, adaptive_run.sampler
    )
    for row in audit.rows:
        assert row.regret >= 0.0
        assert row.realized_chosen >= row.realized_best
        if row.was_optimal:
            assert row.regret == 0.0
        else:
            assert row.regret > 0.0
    assert 0.0 < audit.optimal_share <= 1.0


def test_realized_cost_of_chosen_route_matches_replay(adaptive_run):
    audit = audit_decisions(
        adaptive_run.machine, adaptive_run.observer, adaptive_run.sampler
    )
    row = audit.rows[len(audit.rows) // 2]
    decision = next(
        d
        for d in adaptive_run.observer.decisions
        if (d.time, d.src, d.dst, str(d.chosen))
        == (row.time, row.src, row.dst, row.chosen)
    )
    cost = realized_arm(
        adaptive_run.machine,
        adaptive_run.sampler,
        decision.chosen,
        decision.packet_bytes,
        row.time,
    )
    assert cost == pytest.approx(row.realized_chosen)


def test_staleness_correlation_is_defined(adaptive_run):
    audit = audit_decisions(
        adaptive_run.machine, adaptive_run.observer, adaptive_run.sampler
    )
    correlation = audit.staleness_regret_correlation
    assert correlation is not None
    assert -1.0 <= correlation <= 1.0


def test_adaptive_beats_direct_on_skewed_workload(adaptive_run, direct_run):
    """The paper's point, audited: routing around congestion leaves far
    less on the table than blindly taking the direct route."""
    adaptive = audit_decisions(
        adaptive_run.machine, adaptive_run.observer, adaptive_run.sampler
    )
    direct = audit_decisions(
        direct_run.machine, direct_run.observer, direct_run.sampler
    )
    assert direct.policy == "direct"
    assert direct.decisions > 0
    assert adaptive.mean_regret < direct.mean_regret
    assert adaptive.total_regret < direct.total_regret


def test_empty_report_degenerates_cleanly():
    report = RegretReport(policy="none")
    assert report.mean_regret == 0.0
    assert report.total_regret == 0.0
    assert report.optimal_share == 0.0
    assert report.percentile_regret(95) == 0.0
    assert report.staleness_regret_correlation is None
    assert report.worst() == []


def test_correlation_undefined_for_constant_series():
    def row(time, staleness, chosen_cost):
        return DecisionAudit(
            time=time, src=0, dst=1, policy="p", chosen="0->1", best="0->1",
            realized_chosen=chosen_cost, realized_best=1.0,
            batch_bytes=1, staleness=staleness,
        )

    constant = RegretReport(policy="p", rows=[row(0.0, 1.0, 2.0), row(1.0, 1.0, 3.0)])
    assert constant.staleness_regret_correlation is None
    varying = RegretReport(policy="p", rows=[row(0.0, 1.0, 2.0), row(1.0, 2.0, 3.0)])
    assert varying.staleness_regret_correlation == pytest.approx(1.0)


def test_report_to_dict(adaptive_run):
    audit = audit_decisions(
        adaptive_run.machine, adaptive_run.observer, adaptive_run.sampler
    )
    payload = audit.to_dict()
    assert payload["decisions"] == audit.decisions
    assert payload["mean_regret"] == pytest.approx(audit.mean_regret)
    assert payload["p95_regret"] >= payload["mean_regret"] * 0.0
