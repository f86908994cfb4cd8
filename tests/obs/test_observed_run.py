"""The observed-run builder: its recorders and its phase split."""

from __future__ import annotations

from repro.obs.analyze import ObservedRun, attribute
from repro.obs.conformance import ConformanceProbe
from repro.routing import AdaptiveArmPolicy
from repro.sim import FlowMatrix, ShuffleSimulator


def test_wiring_hands_out_its_own_recorders():
    run = ObservedRun()
    assert run.wiring == {"observer": run.observer, "sampler": run.sampler}
    assert run.observer.conformance is None
    probed = ObservedRun(conformance=True)
    assert isinstance(probed.observer.conformance, ConformanceProbe)


def test_bottlenecks_split_at_the_last_decision(adaptive_run):
    """A bare shuffle has no partition pass, so its windows name none."""
    report = adaptive_run.bottlenecks(adaptive_run.report.cut, top=3)
    split = max(decision.time for decision in adaptive_run.observer.decisions)
    inject, drain = (phase.phase for phase in report.phases)
    assert inject.name == "inject"
    assert (inject.start, inject.end) == (0.0, split)
    assert drain.name == "drain"
    assert (drain.start, drain.end) == (split, adaptive_run.sampler.horizon)
    assert all(len(phase.links) <= 3 for phase in report.phases)


def test_no_split_inside_the_run_keeps_one_phase(dgx1):
    """One batch per flow: both decisions are made at time zero."""
    run = ObservedRun()
    gpu_ids = (0, 1)
    report = ShuffleSimulator(dgx1, gpu_ids, **run.wiring).run(
        FlowMatrix.all_to_all(gpu_ids, 64 * 1024), AdaptiveArmPolicy()
    )
    assert max(decision.time for decision in run.observer.decisions) == 0.0
    got = run.bottlenecks(report.cut)
    assert [phase.phase.name for phase in got.phases] == ["distribution"]
    assert got.to_dict() == attribute(run.sampler, report.cut).to_dict()
