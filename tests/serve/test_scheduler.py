"""QueryScheduler: admission control, determinism, deadlines, budgets.

The scheduler's contract is graded against solo joins: serving must
never change what a query computes, only when it runs — and every way
a query can fail must end in a structured outcome, never a hang.
"""

import pytest
from helpers import healthy_latency, solo_join

import repro.sim.shuffle as shuffle_module
from repro.core.config import MGJoinConfig
from repro.core.mgjoin import MGJoin
from repro.faults import PRESET_NAMES, FaultEvent, FaultKind, FaultPlan
from repro.faults.chaos import resolve_plan
from repro.routing import AdaptiveArmPolicy, DirectPolicy
from repro.serve import QueryRequest, QueryScheduler, synthetic_requests, workload_for
from repro.sim import Engine, ShuffleConfig


def preset_for(machine, request, preset):
    """``preset`` resolved against ``request``'s solo healthy run."""
    horizon = solo_join(machine, request).shuffle_report.elapsed
    gpu_ids = workload_for(machine, request).gpu_ids
    return resolve_plan(preset, machine, horizon, 0, gpu_ids)


#: The report fields that describe the query's own flows.  Link-level
#: fields (``link_stats``, ``wire_bytes``) describe the shared fabric,
#: which a served group stops watching at its last owed byte.
QUERY_REPORT_FIELDS = (
    "elapsed",
    "delivered_bytes",
    "packets_delivered",
    "hop_count_total",
    "per_gpu_delivered",
    "packet_retries",
    "packet_reroutes",
    "packet_fallbacks",
    "packets_recovered",
    "recovery",
    "integrity",
)


class TestServingIdentity:
    @pytest.mark.parametrize(
        "arbitration, preset",
        [(None, None), ("fair", None), ("priority", None)]
        + [(None, preset) for preset in PRESET_NAMES],
        ids=["None", "fair", "priority", *PRESET_NAMES],
    )
    def test_single_query_serve_equals_solo_join(self, dgx1, arbitration, preset):
        """One tenant alone must see exactly the standalone join, healthy
        or under any fault preset, down to its own shuffle report."""
        request = QueryRequest(name="only", gpus=4, tuples=2048)
        faults = preset_for(dgx1, request, preset) if preset else None
        report = QueryScheduler(
            dgx1,
            [request],
            policy_factory=AdaptiveArmPolicy,
            arbitration=arbitration,
            faults=faults,
        ).run()
        outcome = report.outcome("only")
        reference = solo_join(dgx1, request, faults=faults)
        assert outcome.status == "completed"
        assert outcome.match_digest == reference.match_digest
        assert outcome.matches == reference.matches_real
        if preset in ("gpu-crash", "gpu-crash-x2"):
            # The crash presets must engage join-level recovery, or the
            # comparison below pins nothing.
            assert reference.recovery is not None
        crashed = reference.recovery.dead_gpus if reference.recovery else ()
        assert outcome.crashed_gpus == tuple(sorted(crashed))
        # Not approximately: an uncontended fabric is timing-identical
        # to the standalone simulator, arbitrated or not.
        assert outcome.join_time == reference.total_time
        assert outcome.retries == reference.shuffle_report.packet_retries
        assert outcome.fallbacks == reference.shuffle_report.packet_fallbacks
        assert outcome.result.recovery == reference.recovery
        served, solo = outcome.result.shuffle_report, reference.shuffle_report
        for name in QUERY_REPORT_FIELDS:
            assert getattr(served, name) == getattr(solo, name), name
        assert report.exit_code == 0

    def test_concurrent_queries_keep_solo_digests(self, dgx1):
        requests = synthetic_requests(5, gpus=4, tuples=1024)
        report = QueryScheduler(
            dgx1,
            requests,
            policy_factory=AdaptiveArmPolicy,
            max_in_flight=2,
        ).run()
        assert report.completed == 5
        assert report.in_flight_peak == 2
        assert report.queue_peak >= 1
        for request in requests:
            outcome = report.outcome(request.name)
            assert outcome.match_digest == solo_join(dgx1, request).match_digest
        # Someone had to wait behind the two admission slots.
        assert max(o.queue_wait for o in report.outcomes) > 0.0

    def test_same_instant_admission_identical_across_engines(self, dgx1):
        """Six queries arriving at t=0 tell one story on the fast and
        the reference kernel."""
        requests = synthetic_requests(6, gpus=4, tuples=1024)
        stories = []
        for factory in (Engine, lambda: Engine(fast=False)):
            report = QueryScheduler(
                dgx1,
                requests,
                policy_factory=AdaptiveArmPolicy,
                max_in_flight=len(requests),
                engine_factory=factory,
            ).run()
            stories.append(
                [(o.name, o.status, o.match_digest, o.matches)
                 for o in report.outcomes]
            )
        assert stories[0] == stories[1]


class TestVerifiedTransport:
    """``ShuffleConfig(verify_transport=True)`` reaches served queries."""

    CONFIG = MGJoinConfig(
        materialize=True, shuffle=ShuffleConfig(verify_transport=True)
    )

    @pytest.fixture
    def layers(self, monkeypatch):
        built = []
        real = shuffle_module.TransportIntegrity

        def spy(*args, **kwargs):
            layer = real(*args, **kwargs)
            built.append(layer)
            return layer

        monkeypatch.setattr(shuffle_module, "TransportIntegrity", spy)
        return built

    def test_single_query_matches_verified_solo_join(self, dgx1, layers):
        request = QueryRequest(name="only", gpus=4, tuples=2048)
        report = QueryScheduler(
            dgx1, [request], policy_factory=AdaptiveArmPolicy, config=self.CONFIG
        ).run()
        assert len(layers) == 1 and layers[0].verify
        reference = MGJoin(
            dgx1, config=self.CONFIG, policy=AdaptiveArmPolicy()
        ).run(workload_for(dgx1, request))
        assert len(layers) == 2 and reference.shuffle_report.integrity.verified
        outcome = report.outcome("only")
        assert outcome.status == "completed"
        assert outcome.match_digest == reference.match_digest
        assert outcome.join_time == reference.total_time

    def test_each_query_owns_its_layer(self, dgx1, layers):
        requests = synthetic_requests(3, gpus=4, tuples=1024)
        report = QueryScheduler(
            dgx1,
            requests,
            policy_factory=AdaptiveArmPolicy,
            config=self.CONFIG,
            max_in_flight=3,
        ).run()
        assert report.completed == 3
        assert len(layers) == 3
        assert len({id(layer) for layer in layers}) == 3
        assert all(layer.verify for layer in layers)


class TestPlanRetry:
    """A plan's ``retry:`` section reaches a served query."""

    @pytest.fixture
    def managers(self, monkeypatch):
        built = []
        real = shuffle_module.RecoveryManager

        def spy(*args, **kwargs):
            manager = real(*args, **kwargs)
            built.append(manager)
            return manager

        monkeypatch.setattr(shuffle_module, "RecoveryManager", spy)
        return built

    def test_single_query_gets_the_plans_retry_policy(self, dgx1, managers):
        plan = FaultPlan(
            name="slow-gpu",
            seed=3,
            events=(
                FaultEvent(
                    kind=FaultKind.GPU_STRAGGLER, at=0.0, gpu=0,
                    magnitude=2.0, duration=1e-3,
                ),
            ),
            retry={"max_attempts": 1},
        )
        request = QueryRequest(name="only", gpus=4, tuples=2048)
        report = QueryScheduler(
            dgx1, [request], policy_factory=AdaptiveArmPolicy, faults=plan
        ).run()
        assert report.outcome("only").status == "completed"
        assert [manager.policy.max_attempts for manager in managers] == [1]


class TestAdmissionControl:
    def test_zero_capacity_sheds_everything_without_hanging(self, dgx1):
        requests = synthetic_requests(4, gpus=2, tuples=1024)
        report = QueryScheduler(
            dgx1, requests, policy_factory=AdaptiveArmPolicy, max_in_flight=0,
        ).run()
        assert report.rejected == 4
        assert all(
            o.rejection is not None and o.rejection.reason == "no-capacity"
            for o in report.outcomes
        )
        # Shed load is graceful: nothing was admitted, nothing was lost.
        assert report.exit_code == 0

    def test_queue_full_sheds_the_overflow_only(self, dgx1):
        requests = synthetic_requests(3, gpus=2, tuples=1024)
        report = QueryScheduler(
            dgx1,
            requests,
            policy_factory=AdaptiveArmPolicy,
            max_in_flight=1,
            queue_depth=1,
        ).run()
        assert report.completed == 2
        assert report.rejected == 1
        shed = [o for o in report.outcomes if o.status == "rejected"]
        assert shed[0].rejection.reason == "queue-full"
        # Arrival order decides who overflowed: the last same-instant
        # arrival is the one shed, deterministically.
        assert shed[0].name == "q002"
        assert report.queue_peak == 1

    def test_crash_at_admission_instant_sheds_gpu_unavailable(self, dgx1):
        """A fault at t=0 lands before the t=0 arrivals: admission must
        see the dead GPU, not start a query on it."""
        plan = FaultPlan(
            name="crash-at-admission",
            seed=1,
            events=(FaultEvent(kind=FaultKind.GPU_CRASH, at=0.0, gpu=0),),
        )
        doomed = QueryRequest(name="doomed", gpu_ids=(0, 1), tuples=1024)
        healthy = QueryRequest(name="healthy", gpu_ids=(4, 5), tuples=1024, seed=9)
        report = QueryScheduler(
            dgx1,
            [doomed, healthy],
            policy_factory=AdaptiveArmPolicy,
            faults=plan,
        ).run()
        shed = report.outcome("doomed")
        assert shed.status == "rejected"
        assert shed.rejection.reason == "gpu-unavailable"
        survivor = report.outcome("healthy")
        assert survivor.status == "completed"
        assert survivor.match_digest == solo_join(dgx1, healthy).match_digest
        assert report.exit_code == 0


class TestDeadlines:
    def test_deadline_expired_while_queued_never_starts(self, dgx1):
        head = QueryRequest(name="head", gpus=4, tuples=4096)
        budget = healthy_latency(dgx1, head)
        stale = QueryRequest(
            name="stale", gpus=2, tuples=1024, deadline=budget * 0.1,
        )
        report = QueryScheduler(
            dgx1,
            [head, stale],
            policy_factory=AdaptiveArmPolicy,
            max_in_flight=1,
            queue_depth=4,
        ).run()
        expired = report.outcome("stale")
        assert expired.status == "deadline-expired"
        assert expired.admitted_at is None  # never ran
        assert "queued" in expired.detail
        assert report.outcome("head").status == "completed"
        assert report.exit_code == 1

    def test_deadline_expiry_during_crash_reshuffle(self, dgx1):
        """A crash mid-shuffle starts recovery; the deadline fires while
        the re-shuffle is still in flight.  The victim must cancel
        cleanly and its sibling must not notice either event."""
        victim = QueryRequest(name="victim", gpu_ids=(0, 1), tuples=4096)
        budget = healthy_latency(dgx1, victim)
        plan = FaultPlan(
            name="mid-shuffle-crash",
            seed=1,
            events=(
                FaultEvent(
                    kind=FaultKind.GPU_CRASH, at=budget * 0.4, gpu=1,
                ),
            ),
        )
        victim = QueryRequest(
            name="victim", gpu_ids=(0, 1), tuples=4096,
            deadline=budget * 0.7,
        )
        sibling = QueryRequest(
            name="sibling", gpu_ids=(4, 5), tuples=4096, seed=9,
        )
        report = QueryScheduler(
            dgx1,
            [victim, sibling],
            policy_factory=AdaptiveArmPolicy,
            faults=plan,
        ).run()
        lost = report.outcome("victim")
        assert lost.status == "deadline-expired"
        assert lost.crashed_gpus == (1,)  # the crash landed first
        untouched = report.outcome("sibling")
        assert untouched.status == "completed"
        assert untouched.crashed_gpus == ()
        assert untouched.match_digest == solo_join(dgx1, sibling).match_digest
        assert report.exit_code == 1


class TestRetryBudgets:
    """The validated blackout scenario: a direct-routing query loses
    packets to a link blackout and must retry its way through."""

    PLAN = FaultPlan(
        name="blackout-01",
        seed=42,
        events=(
            FaultEvent(
                kind=FaultKind.LINK_BLACKOUT, at=0.0, src=0, dst=1,
                duration=5e-3,
            ),
        ),
    )
    VICTIM = QueryRequest(name="victim", gpu_ids=(0, 1), tuples=4096, seed=7)
    BYSTANDER = QueryRequest(
        name="bystander", gpu_ids=(4, 5), tuples=4096, seed=8,
    )

    def run(self, machine, retry_budget):
        return QueryScheduler(
            machine,
            [self.VICTIM, self.BYSTANDER],
            policy_factory=DirectPolicy,
            faults=self.PLAN,
            retry_budget=retry_budget,
        ).run()

    def test_unlimited_budget_retries_through_the_blackout(self, dgx1):
        report = self.run(dgx1, retry_budget=None)
        victim = report.outcome("victim")
        assert victim.status == "completed"
        assert victim.retries > 0
        assert victim.match_digest == solo_join(
            dgx1, self.VICTIM, DirectPolicy
        ).match_digest
        assert report.exit_code == 0

    def test_exhausted_budget_fails_the_victim_alone(self, dgx1):
        report = self.run(dgx1, retry_budget=0)
        victim = report.outcome("victim")
        assert victim.status == "retry-budget-exhausted"
        assert "retry budget" in victim.detail
        bystander = report.outcome("bystander")
        assert bystander.status == "completed"
        assert bystander.match_digest == solo_join(
            dgx1, self.BYSTANDER, DirectPolicy
        ).match_digest
        assert report.exit_code == 1


class TestSchedulerValidation:
    def test_duplicate_names_rejected(self, dgx1):
        requests = [QueryRequest(name="q"), QueryRequest(name="q")]
        with pytest.raises(ValueError, match="unique"):
            QueryScheduler(dgx1, requests, policy_factory=AdaptiveArmPolicy)

    def test_unknown_gpu_rejected(self, dgx1):
        request = QueryRequest(name="q", gpu_ids=(0, 99))
        with pytest.raises(ValueError, match="unknown GPUs"):
            QueryScheduler(
                dgx1, [request], policy_factory=AdaptiveArmPolicy
            ).run()

    def test_negative_limits_rejected(self, dgx1):
        requests = [QueryRequest(name="q")]
        with pytest.raises(ValueError):
            QueryScheduler(
                dgx1, requests, policy_factory=AdaptiveArmPolicy,
                max_in_flight=-1,
            )
        with pytest.raises(ValueError):
            QueryScheduler(
                dgx1, requests, policy_factory=AdaptiveArmPolicy,
                queue_depth=-1,
            )
