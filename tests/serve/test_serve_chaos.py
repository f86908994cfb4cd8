"""Chaos under concurrency: the per-query digest-identity gate."""

import pytest

from repro.faults.chaos import ChaosError, run_chaos
from repro.routing import AdaptiveArmPolicy
from repro.serve import synthetic_requests

#: Twelve four-GPU tenants — the ISSUE's headline concurrency bar.
REQUESTS = synthetic_requests(12, gpus=4, tuples=1024)


@pytest.fixture(scope="module")
def gpu_crash_report(dgx1):
    """One graded gpu-crash run shared by the inspection tests."""
    return run_chaos(
        dgx1,
        REQUESTS,
        "gpu-crash",
        policy_factory=AdaptiveArmPolicy,
        min_in_flight=12,
    )


class TestConcurrencyIdentityGate:
    def test_gpu_crash_with_twelve_in_flight(self, gpu_crash_report):
        report = gpu_crash_report
        assert report.correct
        assert report.concurrent_enough
        assert report.serve.in_flight_peak >= 12
        assert report.serve.completed == 12
        assert report.mismatches == []
        # The crash actually hit someone: at least one query recovered.
        assert report.recovered_queries
        for name in report.recovered_queries:
            outcome = report.serve.outcome(name)
            assert outcome.crashed_gpus
            assert outcome.match_digest == report.solo[name].match_digest


class TestReportShape:
    def test_to_dict_carries_per_query_verdicts(self, gpu_crash_report):
        payload = gpu_crash_report.to_dict()
        assert payload["correct"] is True
        assert payload["min_in_flight"] == 12
        assert payload["in_flight_peak"] >= 12
        assert set(payload["queries"]) == {r.name for r in REQUESTS}
        for verdict in payload["queries"].values():
            assert verdict["status"] == "completed"
            assert verdict["digest"] == verdict["solo_digest"]
        assert payload["serve"]["exit_code"] == 0

    def test_summary_names_the_gate(self, gpu_crash_report):
        text = "\n".join(gpu_crash_report.summary_lines())
        assert "digest identity : OK" in text
        assert "recovered" in text


class TestGuards:
    def test_too_few_requests_for_the_gate(self, dgx1):
        with pytest.raises(ValueError, match="at least 12"):
            run_chaos(
                dgx1,
                synthetic_requests(3, gpus=2, tuples=1024),
                "gpu-crash",
                policy_factory=AdaptiveArmPolicy,
                min_in_flight=12,
            )

    def test_single_gpu_workloads_cannot_be_graded(self, dgx1):
        with pytest.raises(ChaosError, match="shuffle"):
            run_chaos(
                dgx1,
                synthetic_requests(2, gpus=1, tuples=1024),
                "gpu-crash",
                policy_factory=AdaptiveArmPolicy,
                min_in_flight=2,
            )


class TestCorruptionUnderServe:
    """A corrupted shared link reports each tampered packet to the query
    that sent it, so a served batch is graded like a solo join."""

    @staticmethod
    def corrupt(dgx1, verify):
        return run_chaos(
            dgx1,
            REQUESTS,
            "payload-corrupt",
            policy_factory=AdaptiveArmPolicy,
            min_in_flight=12,
            strict=False,
            verify=verify,
        )

    def test_verified_batch_is_repaired(self, dgx1):
        report = self.corrupt(dgx1, verify=None)
        assert report.correct, report.failure
        assert report.serve.completed == 12
        stats = [run.shuffle_report.integrity for run in report.runs.values()]
        assert all(s is not None and s.verified for s in stats)
        assert sum(s.retransmits for s in stats) > 0
        assert not report.silent_corruption_detected

    def test_unverified_batch_is_flagged_as_silent_corruption(self, dgx1):
        report = self.corrupt(dgx1, verify=False)
        assert report.silent_corruption_detected
        assert not report.correct
        assert "silently corrupted the shuffle" in report.failure
