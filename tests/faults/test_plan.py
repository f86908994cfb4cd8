"""Fault plans: validation, serialization round-trips, seeded presets."""

import json
import subprocess
import sys

import pytest

from repro.faults import (
    PRESET_NAMES,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    build_preset,
)


class TestFaultEvent:
    def test_link_kinds_need_a_distinct_pair(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(
                kind=FaultKind.LINK_DEGRADE, at=0.0, src=1,
                duration=1.0, magnitude=0.5,
            )
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.LINK_BLACKOUT, at=0.0, src=1, dst=1,
                       duration=1.0)

    def test_gpu_kinds_need_a_target(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.0)

    def test_permanent_kinds_refuse_duration(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.LINK_FAIL, at=0.0, src=0, dst=1,
                       duration=1.0)
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.0, gpu=0, duration=1.0)

    def test_transient_kinds_need_duration(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.LINK_BLACKOUT, at=0.0, src=0, dst=1)
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.GPU_STRAGGLER, at=0.0, gpu=0,
                       duration=-1.0, magnitude=2.0)

    def test_degrade_magnitude_is_a_bandwidth_scale(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.LINK_DEGRADE, at=0.0, src=0, dst=1,
                       duration=1.0, magnitude=1.5)

    def test_straggler_magnitude_is_a_slowdown(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.GPU_STRAGGLER, at=0.0, gpu=0,
                       duration=1.0, magnitude=0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind=FaultKind.GPU_CRASH, at=-1.0, gpu=0)

    def test_dict_round_trip(self):
        event = FaultEvent(kind=FaultKind.LINK_DEGRADE, at=1.0, src=0, dst=3,
                           duration=2.0, magnitude=0.25)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent.from_dict(
                {"kind": "gpu-crash", "at": 0.0, "gpu": 1, "blast_radius": 2}
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent.from_dict({"kind": "meteor-strike", "at": 0.0})


def sample_plan():
    return FaultPlan(
        name="sample",
        seed=3,
        events=(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=5.0, gpu=1),
            FaultEvent(kind=FaultKind.LINK_FAIL, at=1.0, src=0, dst=1),
        ),
    )


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        assert [event.at for event in sample_plan().events] == [1.0, 5.0]

    def test_dict_round_trip(self):
        plan = sample_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_empty_events_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"name": "x", "events": []})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(sample_plan().to_dict()))
        assert FaultPlan.from_file(path) == sample_plan()

    def test_from_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "plan.yaml"
        path.write_text(yaml.safe_dump(sample_plan().to_dict()))
        assert FaultPlan.from_file(path) == sample_plan()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{nope")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_file(path)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_same_seed_reproduces_the_plan(self, dgx1, name):
        first = build_preset(name, dgx1, horizon=1.0, seed=7)
        again = build_preset(name, dgx1, horizon=1.0, seed=7)
        assert first == again
        assert len(first) >= 1

    def test_reproducible_across_interpreters(self, dgx1):
        """Preset schedules must not depend on PYTHONHASHSEED."""
        local = json.dumps(
            build_preset("link-flap", dgx1, horizon=1.0, seed=7).to_dict()
        )
        script = (
            "import json; from repro.topology import dgx1_topology;"
            " from repro.faults import build_preset;"
            " print(json.dumps(build_preset('link-flap', dgx1_topology(),"
            " horizon=1.0, seed=7).to_dict()))"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert remote == local

    def test_seed_varies_targets(self, dgx1):
        plans = {
            json.dumps(build_preset("link-flap", dgx1, 1.0, seed=s).to_dict())
            for s in range(8)
        }
        assert len(plans) > 1

    def test_times_scale_with_horizon(self, dgx1):
        short = build_preset("nvlink-cut", dgx1, horizon=1.0, seed=0)
        long = build_preset("nvlink-cut", dgx1, horizon=10.0, seed=0)
        assert long.events[0].at == pytest.approx(10 * short.events[0].at)

    def test_gpu_targets_restricted_to_participants(self, dgx1):
        for seed in range(10):
            plan = build_preset(
                "gpu-straggler", dgx1, 1.0, seed=seed, gpu_ids=(0, 1)
            )
            assert plan.events[0].gpu in (0, 1)

    def test_link_targets_restricted_to_participants(self, dgx1):
        for seed in range(10):
            plan = build_preset(
                "nvlink-cut", dgx1, 1.0, seed=seed, gpu_ids=(0, 1, 2, 3)
            )
            event = plan.events[0]
            assert event.src in (0, 1, 2, 3) and event.dst in (0, 1, 2, 3)

    def test_unknown_preset_rejected(self, dgx1):
        with pytest.raises(FaultPlanError):
            build_preset("meteor-strike", dgx1, 1.0)

    def test_nonpositive_horizon_rejected(self, dgx1):
        with pytest.raises(FaultPlanError):
            build_preset("nvlink-cut", dgx1, 0.0)


def corruption_event(kind=FaultKind.PAYLOAD_CORRUPT, **overrides):
    kwargs = dict(kind=kind, at=1.0, duration=2.0, src=0, dst=1, magnitude=0.5)
    kwargs.update(overrides)
    return FaultEvent(**kwargs)


class TestCorruptionEvents:
    @pytest.mark.parametrize(
        "kind",
        (FaultKind.PAYLOAD_CORRUPT, FaultKind.PACKET_DUP, FaultKind.PACKET_REORDER),
    )
    def test_magnitude_must_be_a_rate(self, kind):
        with pytest.raises(FaultPlanError):
            corruption_event(kind, magnitude=0.0)
        with pytest.raises(FaultPlanError):
            corruption_event(kind, magnitude=1.5)
        assert corruption_event(kind, magnitude=1.0).magnitude == 1.0

    @pytest.mark.parametrize(
        "kind",
        (FaultKind.PAYLOAD_CORRUPT, FaultKind.PACKET_DUP, FaultKind.PACKET_REORDER),
    )
    def test_needs_duration_and_link_pair(self, kind):
        with pytest.raises(FaultPlanError):
            corruption_event(kind, duration=None)
        with pytest.raises(FaultPlanError):
            corruption_event(kind, src=None, dst=None)

    def test_dict_round_trip_keeps_magnitude(self):
        event = corruption_event(FaultKind.PACKET_DUP, magnitude=0.25)
        payload = event.to_dict()
        assert payload["magnitude"] == 0.25
        assert FaultEvent.from_dict(payload) == event

    def test_corruption_presets_validate(self, dgx1):
        for name in ("payload-corrupt", "packet-dup", "packet-reorder"):
            plan = build_preset(name, dgx1, horizon=1.0, seed=4)
            plan.validate(dgx1)
            assert plan.events[0].kind.value == name
            assert plan.events[0].duration is not None


class TestPermanentConflicts:
    """validate() rejects plans whose later events target something an
    earlier permanent fault already removed, naming both events."""

    def test_double_crash_same_gpu(self, dgx1):
        plan = FaultPlan(
            name="crash-twice",
            events=(
                FaultEvent(kind=FaultKind.GPU_CRASH, at=1.0, gpu=2),
                FaultEvent(kind=FaultKind.GPU_CRASH, at=2.0, gpu=2),
            ),
        )
        with pytest.raises(FaultPlanError) as err:
            plan.validate(dgx1)
        message = str(err.value)
        assert "gpu-crash at t=1.0 on gpu2" in message
        assert "gpu-crash at t=2.0 on gpu2" in message

    def test_double_fail_same_link(self, dgx1):
        plan = FaultPlan(
            name="fail-twice",
            events=(
                FaultEvent(kind=FaultKind.LINK_FAIL, at=1.0, src=0, dst=1),
                FaultEvent(kind=FaultKind.LINK_FAIL, at=2.0, src=1, dst=0),
            ),
        )
        with pytest.raises(FaultPlanError) as err:
            plan.validate(dgx1)
        message = str(err.value)
        assert "link-fail at t=1.0" in message and "link-fail at t=2.0" in message

    def test_event_on_failed_link(self, dgx1):
        plan = FaultPlan(
            name="degrade-dead-link",
            events=(
                FaultEvent(kind=FaultKind.LINK_FAIL, at=1.0, src=0, dst=1),
                FaultEvent(
                    kind=FaultKind.LINK_DEGRADE,
                    at=2.0,
                    src=0,
                    dst=1,
                    duration=1.0,
                    magnitude=0.5,
                ),
            ),
        )
        with pytest.raises(FaultPlanError, match="already removed by"):
            plan.validate(dgx1)

    def test_event_touching_crashed_gpu(self, dgx1):
        plan = FaultPlan(
            name="corrupt-dead-gpu",
            events=(
                FaultEvent(kind=FaultKind.GPU_CRASH, at=1.0, gpu=1),
                corruption_event(at=2.0, src=0, dst=1),
            ),
        )
        with pytest.raises(FaultPlanError) as err:
            plan.validate(dgx1)
        message = str(err.value)
        assert "gpu-crash at t=1.0 on gpu1" in message
        assert "payload-corrupt at t=2.0 on gpu0<->gpu1" in message

    def test_straggler_on_crashed_gpu(self, dgx1):
        plan = FaultPlan(
            name="straggle-the-dead",
            events=(
                FaultEvent(kind=FaultKind.GPU_CRASH, at=1.0, gpu=3),
                FaultEvent(
                    kind=FaultKind.GPU_STRAGGLER,
                    at=2.0,
                    gpu=3,
                    duration=1.0,
                    magnitude=2.0,
                ),
            ),
        )
        with pytest.raises(FaultPlanError, match="already removed by"):
            plan.validate(dgx1)

    def test_disjoint_targets_pass(self, dgx1):
        plan = FaultPlan(
            name="fine",
            events=(
                FaultEvent(kind=FaultKind.LINK_FAIL, at=1.0, src=0, dst=1),
                FaultEvent(kind=FaultKind.GPU_CRASH, at=2.0, gpu=5),
                corruption_event(at=3.0, src=2, dst=3),
            ),
        )
        assert plan.validate(dgx1) is plan

    def test_transient_faults_may_repeat(self, dgx1):
        plan = FaultPlan(
            name="flap",
            events=(
                FaultEvent(
                    kind=FaultKind.LINK_BLACKOUT, at=1.0, duration=0.5, src=0, dst=1
                ),
                FaultEvent(
                    kind=FaultKind.LINK_BLACKOUT, at=3.0, duration=0.5, src=0, dst=1
                ),
            ),
        )
        assert plan.validate(dgx1) is plan
