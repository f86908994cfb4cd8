"""Join-level crash recovery: exact results after losing GPUs mid-join.

The headline guarantee under test: for any fault plan crashing up to
N−1 GPUs, the faulted join's match set equals the healthy run's
byte-for-byte (canonical digest), crashed GPUs provably contribute zero
post-crash compute, and healthy runs pay zero recovery overhead.
"""

from __future__ import annotations

import pytest

from helpers import make_workload
from repro.core import (
    MGJoin,
    MGJoinConfig,
    RecoveryError,
    assign_partitions,
    build_histograms,
    ensure_recoverable,
)
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    run_chaos,
)
from repro.obs import Observer
from repro.sim import RecoveryConfig, RetryPolicy
from repro.topology import TopologyBuilder
from repro.topology.routes import RouteEnumerator, UnroutableError

CFG = MGJoinConfig(materialize=True)


def crash_plan(*events: FaultEvent, name: str = "crash-test") -> FaultPlan:
    return FaultPlan(name=name, events=tuple(events), seed=0)


def run_pair(machine, workload, plan, *, recovery=None, observer=None):
    """One healthy and one faulted run of the same workload."""
    healthy = MGJoin(machine, CFG).run(workload)
    faulted = MGJoin(
        machine, CFG, faults=plan, recovery=recovery, observer=observer
    ).run(workload)
    return healthy, faulted


def assert_exact(healthy, faulted, expected_dead):
    assert faulted.match_digest == healthy.match_digest
    assert faulted.matches_logical == healthy.matches_logical
    assert faulted.recovery is not None
    assert set(faulted.recovery.dead_gpus) == set(expected_dead)
    for gpu_id in expected_dead:
        assert faulted.per_gpu_matches[gpu_id] == 0


class TestSingleCrash:
    def test_preset_recovers_exact_result(self, dgx1):
        workload = make_workload(num_gpus=4)
        report = run_chaos(dgx1, workload, "gpu-crash", seed=1)  # strict
        recovery = report.faulted.recovery
        assert report.correct
        assert report.faulted.match_digest == report.healthy.match_digest
        assert recovery is not None and len(recovery.dead_gpus) == 1
        assert recovery.partitions_reassigned > 0
        assert recovery.reshuffled_bytes > 0
        assert recovery.max_detection_latency > 0
        dead = recovery.dead_gpus[0]
        assert report.faulted.per_gpu_matches[dead] == 0
        # Survivors absorbed the dead GPU's share of the matches.
        assert (
            sum(report.faulted.per_gpu_matches.values())
            == sum(report.healthy.per_gpu_matches.values())
        )

    def test_detection_distinguishes_straggler_from_crash(self, dgx1):
        """A slow GPU keeps heartbeating; only the crashed one dies."""
        workload = make_workload(num_gpus=4)
        healthy = MGJoin(dgx1, CFG).run(workload)
        at = healthy.shuffle_report.elapsed * 0.3
        plan = crash_plan(
            FaultEvent(
                kind=FaultKind.GPU_STRAGGLER,
                at=at,
                gpu=2,
                duration=healthy.shuffle_report.elapsed,
                magnitude=6.0,
            ),
            FaultEvent(kind=FaultKind.GPU_CRASH, at=at, gpu=1),
        )
        faulted = MGJoin(dgx1, CFG, faults=plan).run(workload)
        assert_exact(healthy, faulted, {1})
        assert 2 not in faulted.recovery.dead_gpus
        assert faulted.per_gpu_matches[2] > 0

    def test_crash_after_shuffle_before_probe(self, dgx1):
        """Data fully received, then lost: everything must re-shuffle."""
        workload = make_workload(num_gpus=4)
        healthy = MGJoin(dgx1, CFG).run(workload)
        plan = crash_plan(
            FaultEvent(
                kind=FaultKind.GPU_CRASH,
                at=healthy.shuffle_report.elapsed * 1.05,
                gpu=2,
            )
        )
        faulted = MGJoin(dgx1, CFG, faults=plan).run(workload)
        assert_exact(healthy, faulted, {2})
        # The crash discarded already-received partition data.
        assert faulted.shuffle_report.recovery.bytes_discarded > 0

    def test_crash_during_selective_broadcast(self, dgx1):
        """Killing a broadcast-partition owner demotes it exactly."""
        workload = make_workload(num_gpus=4, key_zipf=1.5)
        healthy = MGJoin(dgx1, CFG).run(workload)
        assert healthy.assignment_broadcasts > 0, "need broadcast partitions"
        # Crash a GPU that co-owns a broadcast partition.
        histograms = build_histograms(workload.r, workload.s, _num_partitions())
        assignment = assign_partitions(histograms, dgx1)
        broadcast_owner = next(
            assignment.gpu_ids[assignment.owners[p][0]]
            for p in range(assignment.num_partitions)
            if assignment.broadcast_side[p] != 0
        )
        plan = crash_plan(
            FaultEvent(
                kind=FaultKind.GPU_CRASH,
                at=healthy.shuffle_report.elapsed * 0.3,
                gpu=broadcast_owner,
            )
        )
        faulted = MGJoin(dgx1, CFG, faults=plan).run(workload)
        assert_exact(healthy, faulted, {broadcast_owner})

    def test_crash_of_intermediate_hop(self, line3):
        """The middle GPU of a 3-GPU line relays traffic; kill it."""
        workload = make_workload(num_gpus=3)
        healthy = MGJoin(line3, CFG).run(workload)
        plan = crash_plan(
            FaultEvent(
                kind=FaultKind.GPU_CRASH,
                at=healthy.shuffle_report.elapsed * 0.3,
                gpu=1,
            )
        )
        faulted = MGJoin(line3, CFG, faults=plan).run(workload)
        assert_exact(healthy, faulted, {1})
        # gpu0 and gpu2 have no NVLink left: host staging carried bytes.
        assert faulted.shuffle_report.packet_fallbacks > 0


class TestMultiCrash:
    def test_two_crashes_same_epoch(self, dgx1):
        """The second GPU dies before the first is even declared."""
        workload = make_workload(num_gpus=4)
        healthy = MGJoin(dgx1, CFG).run(workload)
        at = healthy.shuffle_report.elapsed * 0.3
        plan = crash_plan(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=at, gpu=1),
            FaultEvent(kind=FaultKind.GPU_CRASH, at=at * 1.01, gpu=3),
        )
        faulted = MGJoin(dgx1, CFG, faults=plan).run(workload)
        assert_exact(healthy, faulted, {1, 3})
        assert set(faulted.recovery.survivors) == {0, 2}

    def test_crash_x2_preset_strict(self, dgx1):
        workload = make_workload(num_gpus=4)
        report = run_chaos(dgx1, workload, "gpu-crash-x2", seed=3)  # strict
        assert report.correct
        assert len(report.faulted.recovery.dead_gpus) == 2

    def test_n_minus_one_crashes(self, dgx1):
        """Lose 3 of 4 GPUs; the last survivor owns everything."""
        workload = make_workload(num_gpus=4)
        healthy = MGJoin(dgx1, CFG).run(workload)
        at = healthy.shuffle_report.elapsed * 0.25
        plan = crash_plan(
            *(
                FaultEvent(kind=FaultKind.GPU_CRASH, at=at * (1 + i), gpu=g)
                for i, g in enumerate((1, 2, 3))
            )
        )
        faulted = MGJoin(dgx1, CFG, faults=plan).run(workload)
        assert_exact(healthy, faulted, {1, 2, 3})
        assert faulted.per_gpu_matches[0] == healthy.matches_real

    def test_all_crash_is_unrecoverable(self, dgx1):
        workload = make_workload(num_gpus=4)
        plan = crash_plan(
            *(
                FaultEvent(kind=FaultKind.GPU_CRASH, at=1e-5, gpu=g)
                for g in range(4)
            )
        )
        with pytest.raises(RecoveryError, match="no survivors"):
            MGJoin(dgx1, CFG, faults=plan).run(workload)
        with pytest.raises(RecoveryError):
            run_chaos(dgx1, workload, plan, seed=0)
        ensure_recoverable(
            crash_plan(FaultEvent(kind=FaultKind.GPU_CRASH, at=0.1, gpu=0)),
            (0, 1, 2, 3),
        )


class TestCheckpoint:
    def test_checkpoint_bounds_reshuffle_volume(self, dgx1):
        """A receive-state checkpoint restores instead of re-sending."""
        workload = make_workload(num_gpus=4)
        healthy = MGJoin(dgx1, CFG).run(workload)
        plan = crash_plan(
            FaultEvent(
                kind=FaultKind.GPU_CRASH,
                at=healthy.shuffle_report.elapsed * 1.05,
                gpu=1,
            )
        )
        interval = healthy.shuffle_report.elapsed / 10
        plain = MGJoin(dgx1, CFG, faults=plan).run(workload)
        checked = MGJoin(
            dgx1,
            CFG,
            faults=plan,
            recovery=RecoveryConfig(checkpoint_interval=interval),
        ).run(workload)
        assert plain.match_digest == healthy.match_digest
        assert checked.match_digest == healthy.match_digest
        assert plain.recovery.checkpoint_restored_bytes == 0
        assert checked.recovery.checkpoint_restored_bytes > 0
        # Restored bytes replace re-shuffled fabric/host traffic.
        assert (
            checked.recovery.host_resent_bytes
            < plain.recovery.host_resent_bytes
            + plain.recovery.reshuffled_bytes
        )


class TestTraceAndOverhead:
    def test_crashed_gpu_contributes_zero_post_crash_compute(self, dgx1):
        """Dead GPU's timeline spans end at (or before) its crash."""
        workload = make_workload(num_gpus=4)
        healthy = MGJoin(dgx1, CFG).run(workload)
        plan = crash_plan(
            FaultEvent(
                kind=FaultKind.GPU_CRASH,
                at=healthy.shuffle_report.elapsed * 0.3,
                gpu=2,
            )
        )
        observer = Observer()
        faulted = MGJoin(dgx1, CFG, faults=plan, observer=observer).run(
            workload
        )
        assert faulted.recovery.dead_gpus == (2,)
        track = "gpu2 (sim)"
        crash_marks = [
            inst
            for inst in observer.spans.find_instants("gpu.crashed")
            if inst.track == track
        ]
        assert len(crash_marks) == 1
        crash_time = crash_marks[0].time
        # Mid-shuffle crash: local/probe never start, so the dead track
        # has no phase spans at all; any that do exist end at the crash.
        spans = observer.spans.find(track=track, category="phase")
        assert all(span.end <= crash_time + 1e-12 for span in spans)
        assert not any(span.start >= crash_time + 1e-12 for span in spans)
        # A surviving GPU's probe span extends past the crash.
        alive = observer.spans.find("probe", track="gpu0 (sim)")
        assert alive and alive[0].end > crash_time

    def test_healthy_run_has_zero_recovery_overhead(self, dgx1):
        workload = make_workload(num_gpus=4)
        baseline = MGJoin(dgx1, CFG).run(workload)
        with_knobs = MGJoin(
            dgx1,
            CFG,
            retry=RetryPolicy(max_attempts=7),
            recovery=RecoveryConfig(checkpoint_interval=1e-4),
        ).run(workload)
        assert baseline.recovery is None
        assert baseline.shuffle_report.recovery is None
        assert with_knobs.match_digest == baseline.match_digest
        assert with_knobs.total_time == baseline.total_time
        assert with_knobs.shuffle_report.elapsed == baseline.shuffle_report.elapsed


class TestSurvivorRouting:
    def test_fail_gpu_makes_routes_through_it_unroutable(self, dgx1):
        enumerator = RouteEnumerator(dgx1)
        route = enumerator.routes(0, 5)[0]
        assert route is not None
        enumerator.fail_gpu(0)
        with pytest.raises(UnroutableError, match="declared dead"):
            enumerator.routes(0, 5)
        with pytest.raises(UnroutableError, match="declared dead"):
            enumerator.routes(5, 0)
        # Survivor-to-survivor routes keep working.
        assert enumerator.routes(5, 6)


class TestPlanValidation:
    def test_unknown_gpu_target_fails_at_load(self, dgx1):
        plan = crash_plan(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.1, gpu=12)
        )
        with pytest.raises(FaultPlanError, match="gpu12"):
            plan.validate(dgx1)

    def test_gpu_outside_cut_fails_at_load(self, dgx1):
        plan = crash_plan(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.1, gpu=6)
        )
        plan.validate(dgx1)  # full machine: fine
        with pytest.raises(FaultPlanError, match="gpu6"):
            plan.validate(dgx1, gpu_ids=(0, 1, 2, 3))

    def test_missing_nvlink_fails_at_load(self, dgx1):
        plan = crash_plan(
            FaultEvent(kind=FaultKind.LINK_FAIL, at=0.1, src=0, dst=5)
        )
        with pytest.raises(FaultPlanError, match="no NVLink"):
            plan.validate(dgx1)

    def test_validate_returns_plan_for_chaining(self, dgx1):
        plan = crash_plan(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.1, gpu=0)
        )
        assert plan.validate(dgx1) is plan


class TestRetryKnobs:
    def test_plan_retry_round_trips(self):
        plan = FaultPlan(
            name="tuned",
            events=(FaultEvent(kind=FaultKind.GPU_CRASH, at=0.1, gpu=0),),
            retry=(("max_attempts", 6), ("host_bandwidth", 8e9)),
        )
        data = plan.to_dict()
        assert data["retry"] == {"max_attempts": 6, "host_bandwidth": 8e9}
        loaded = FaultPlan.from_dict(data)
        assert loaded.retry_kwargs == {
            "max_attempts": 6,
            "host_bandwidth": 8e9,
        }
        assert RetryPolicy(**loaded.retry_kwargs).max_attempts == 6

    def test_unknown_retry_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown retry fields"):
            FaultPlan(
                name="bad",
                events=(
                    FaultEvent(kind=FaultKind.GPU_CRASH, at=0.1, gpu=0),
                ),
                retry=(("warp_speed", 9.0),),
            )

    def test_plan_retry_applies_to_faulted_run(self, dgx1):
        workload = make_workload(num_gpus=4)
        healthy = MGJoin(dgx1, CFG).run(workload)
        plan = FaultPlan(
            name="tuned-crash",
            events=(
                FaultEvent(
                    kind=FaultKind.GPU_CRASH,
                    at=healthy.shuffle_report.elapsed * 0.3,
                    gpu=1,
                ),
            ),
            retry=(("host_bandwidth", 50e9),),
        )
        fast = run_chaos(dgx1, workload, plan, seed=0, strict=False)
        slow = run_chaos(
            dgx1,
            workload,
            plan,
            seed=0,
            strict=False,
            retry=RetryPolicy(host_bandwidth=1e9),
        )
        assert fast.correct and slow.correct
        # The explicit retry argument overrides the plan's baked-in one.
        assert (
            slow.faulted.shuffle_report.elapsed
            >= fast.faulted.shuffle_report.elapsed
        )


class TestChaosCli:
    def test_unbridgeable_plan_exits_cleanly(self, tmp_path):
        import json

        from repro.cli import main

        plan_path = tmp_path / "allcrash.json"
        plan_path.write_text(
            json.dumps(
                {
                    "name": "all-crash",
                    "events": [
                        {"kind": "gpu-crash", "at": 1e-4, "gpu": g}
                        for g in range(4)
                    ],
                }
            )
        )
        code = main(
            [
                "chaos",
                "--machine",
                "dgx1",
                "--gpus",
                "4",
                "--plan",
                str(plan_path),
                "--tuples-per-gpu",
                "64K",
                "--real-tuples",
                "2K",
            ]
        )
        assert code == 2

    def test_expect_loss_fails_without_a_crash(self):
        from repro.cli import main

        code = main(
            [
                "chaos",
                "--machine",
                "dgx1",
                "--gpus",
                "4",
                "--preset",
                "nvlink-cut",
                "--tuples-per-gpu",
                "64K",
                "--real-tuples",
                "2K",
                "--expect-loss",
            ]
        )
        assert code == 1

    def test_expect_loss_passes_with_crash(self, tmp_path):
        import json

        from repro.cli import main

        out_dir = tmp_path / "chaos"
        code = main(
            [
                "chaos",
                "--machine",
                "dgx1",
                "--gpus",
                "4",
                "--preset",
                "gpu-crash",
                "--tuples-per-gpu",
                "64K",
                "--real-tuples",
                "2K",
                "--expect-loss",
                "--max-attempts",
                "6",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "chaos_report.json").read_text())
        assert payload["correct"] is True
        assert payload["healthy_digest"] == payload["faulted_digest"]
        assert payload["retry"]["max_attempts"] == 6
        assert payload["recovery_telemetry"]["dead_gpus"]
        assert payload["recovery_telemetry"]["reshuffled_bytes"] > 0


@pytest.fixture(scope="module")
def line3():
    """Three GPUs in a line: gpu1 is the only NVLink relay for 0<->2."""
    builder = TopologyBuilder("line3")
    builder.add_gpus(3)
    builder.add_switch(0, socket=0)
    for gpu_id in range(3):
        builder.attach_gpu_to_switch(gpu_id, 0)
    builder.add_nvlink(0, 1)
    builder.add_nvlink(1, 2)
    return builder.build()


def _num_partitions() -> int:
    """Mirror MGJoin.run()'s partition-count choice for CFG."""
    from repro.core.histogram import max_partitions

    return CFG.num_partitions or max_partitions(
        CFG.compute.spec, CFG.histogram_entry_bytes, CFG.thread_blocks_per_sm
    )
