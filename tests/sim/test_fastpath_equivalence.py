"""Fast-path vs reference kernel: bit-identical shuffle outcomes.

The fast engine dispatches same-instant work from a FIFO deque instead
of the time heap.  Ready entries and heap entries share one sequence
counter and time never advances while the deque is non-empty, so the
callback order — and therefore every simulated number — must match the
all-heap reference mode (``Engine(fast=False)``) exactly, float bit
for float bit.  These tests hold the kernel to that across the policy
spectrum, under hand-written fault plans and under plans sampled from
the ``repro chaos fuzz`` stream (property-style: arbitrary valid chaos
with verified transport and live telemetry, compared on reports,
telemetry event sequences and integrity accounting).

Engine agreement alone cannot catch a change that moves both modes
the same way, so the join-level results are also pinned to committed
golden constants.
"""

import dataclasses

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.fuzz import sample_plan
from repro.obs import Observer
from repro.obs.stream import TelemetryStream
from repro.routing import AdaptiveArmPolicy, CentralizedPolicy, DirectPolicy
from repro.sim import Engine, FlowMatrix, ShuffleConfig, ShuffleSimulator

MB = 1024 * 1024


def small_config(**overrides):
    defaults = dict(injection_rate=None, consume_rate=None)
    defaults.update(overrides)
    return ShuffleConfig(**defaults)


def run_both(machine, gpus, flows, make_policy, **sim_kwargs):
    """Run the same shuffle on the fast and the reference kernel."""
    fast = ShuffleSimulator(machine, gpus, small_config(), **sim_kwargs).run(
        flows, make_policy()
    )
    reference = ShuffleSimulator(
        machine,
        gpus,
        small_config(),
        engine_factory=lambda: Engine(fast=False),
        **sim_kwargs,
    ).run(flows, make_policy())
    return fast, reference


def assert_identical(fast, reference):
    """Field-by-field exact equality — no approx, floats must be ==."""
    assert dataclasses.asdict(fast) == dataclasses.asdict(reference)


def skewed_flows(gpus):
    flows = FlowMatrix()
    for src in gpus:
        for dst in gpus:
            if src != dst:
                flows.add(src, dst, (12 if dst == gpus[0] else 4) * MB)
    return flows


def test_direct_policy_identical(dgx1):
    gpus = (0, 1, 2, 3)
    fast, reference = run_both(
        dgx1, gpus, FlowMatrix.all_to_all(gpus, 8 * MB), DirectPolicy
    )
    assert_identical(fast, reference)


def test_adaptive_policy_identical_under_skew(dgx1):
    gpus = tuple(range(8))
    fast, reference = run_both(
        dgx1, gpus, skewed_flows(gpus), AdaptiveArmPolicy
    )
    assert_identical(fast, reference)


def test_centralized_policy_identical(dgx1):
    gpus = (0, 1, 2, 3)
    fast, reference = run_both(
        dgx1, gpus, FlowMatrix.all_to_all(gpus, 8 * MB), CentralizedPolicy
    )
    assert_identical(fast, reference)


def test_identical_under_chaos_fault_plan(dgx1):
    """Equivalence must survive faults: reroutes, retries, restores."""
    gpus = tuple(range(8))
    plan = FaultPlan(
        name="equivalence-mix",
        events=(
            FaultEvent(FaultKind.LINK_DEGRADE, at=0.002, src=0, dst=1,
                       magnitude=0.25, duration=0.01),
            FaultEvent(FaultKind.LINK_FAIL, at=0.004, src=2, dst=3),
            FaultEvent(FaultKind.GPU_STRAGGLER, at=0.003, gpu=4,
                       magnitude=2.0, duration=0.01),
        ),
    )
    fast, reference = run_both(
        dgx1, gpus, skewed_flows(gpus), AdaptiveArmPolicy, faults=plan
    )
    assert_identical(fast, reference)


def test_both_kernels_consume_identical_schedule_sequence(dgx1):
    """Both modes must burn sequence numbers identically: the fast
    path's ordering proof rests on the shared counter, so a drift in
    ``events_scheduled`` would break FIFO equivalence silently."""
    gpus = (0, 1, 2, 3)
    snapshots = []
    for factory in (Engine, lambda: Engine(fast=False)):
        observer = Observer()
        ShuffleSimulator(
            dgx1, gpus, small_config(), observer=observer,
            engine_factory=factory,
        ).run(FlowMatrix.all_to_all(gpus, 8 * MB), AdaptiveArmPolicy())
        snapshots.append(
            observer.metrics.gauge("engine.events_scheduled").value
        )
    assert snapshots[0] == snapshots[1] > 0
    # The fast kernel must actually be exercising its deque here, or
    # this whole file is vacuously comparing the reference to itself.
    fast_observer = Observer()
    ShuffleSimulator(dgx1, gpus, small_config(), observer=fast_observer).run(
        FlowMatrix.all_to_all(gpus, 8 * MB), AdaptiveArmPolicy()
    )
    assert fast_observer.metrics.gauge("engine.ready_dispatches").value > 0


# ----------------------------------------------------------------------
# Fuzz-sampled fault plans
# ----------------------------------------------------------------------

#: Fuzz-stream coordinates: enough plans to hit every fault kind
#: (corruption, duplication, reorder, crash, degrade, blackout) with
#: near-certainty while keeping the suite in tier-1 time.
FUZZ_SEED = 1234
FUZZ_PLANS = 10
FUZZ_GPUS = (0, 1, 2, 3)
HORIZON = 0.02


def _fuzz_flows():
    flows = FlowMatrix()
    for src in FUZZ_GPUS:
        for dst in FUZZ_GPUS:
            if src != dst:
                flows.add(src, dst, (8 if dst == FUZZ_GPUS[0] else 4) * MB)
    return flows


def _mask_engine_specific(event: dict) -> dict:
    """Drop fields that legitimately differ between engine modes.

    The ``kernel`` event reports the engine's own dispatch counters
    (heap vs ready drains) — implementation telemetry, not simulation
    output.  Everything else must match exactly.
    """
    if event.get("type") == "kernel":
        event = dict(event)
        event.pop("stats", None)
    return event


def _run_streamed(dgx1, plan, engine_factory=None):
    events = []
    stream = TelemetryStream(None)
    stream.subscribe(events.append)
    observer = Observer()
    observer.stream = stream
    simulator = ShuffleSimulator(
        dgx1,
        FUZZ_GPUS,
        ShuffleConfig(verify_transport=True),
        observer=observer,
        faults=plan,
        engine_factory=engine_factory,
    )
    report = simulator.run(_fuzz_flows(), AdaptiveArmPolicy())
    return (
        dataclasses.asdict(report),
        [_mask_engine_specific(event) for event in events],
    )


def _fuzz_plan(dgx1, index):
    return sample_plan(dgx1, HORIZON, FUZZ_SEED, index, gpu_ids=FUZZ_GPUS)


@pytest.mark.parametrize("index", range(FUZZ_PLANS))
def test_fuzz_plan_equivalence(dgx1, index):
    """Each fuzz-sampled plan: identical report (incl. IntegrityStats)
    and identical telemetry stream on both kernel modes."""
    plan = _fuzz_plan(dgx1, index)
    fast_report, fast_stream = _run_streamed(dgx1, plan)
    reference_report, reference_stream = _run_streamed(
        dgx1, plan, engine_factory=lambda: Engine(fast=False)
    )
    assert fast_report == reference_report, plan.name
    assert fast_stream == reference_stream, plan.name
    # Verified transport was actually on: integrity accounting compared.
    assert fast_report["integrity"] is not None


def test_fuzz_plans_cover_integrity_action(dgx1):
    """At least one sampled plan makes the integrity layer act (repair,
    drop or reorder) — otherwise the suite above proves too little."""
    acted = 0
    for index in range(FUZZ_PLANS):
        report, _ = _run_streamed(dgx1, _fuzz_plan(dgx1, index))
        integrity = report["integrity"]
        acted += any(
            integrity[key]
            for key in ("corrupted_wire", "duplicated_wire", "reordered_wire")
        )
    assert acted > 0


def test_streaming_on_off_identical(dgx1):
    """Attaching the telemetry stream (LinkPump sampling rides
    ``Engine.every`` housekeeping ticks) must not perturb the
    simulation by a single bit."""
    plan = _fuzz_plan(dgx1, 3)
    streamed, events = _run_streamed(dgx1, plan)
    plain = ShuffleSimulator(
        dgx1,
        FUZZ_GPUS,
        ShuffleConfig(verify_transport=True),
        faults=plan,
    ).run(_fuzz_flows(), AdaptiveArmPolicy())
    assert events  # the stream actually recorded the run
    assert dataclasses.asdict(plain) == streamed


# ----------------------------------------------------------------------
# Golden join results
# ----------------------------------------------------------------------

#: Canonical match digest and real match count of the seed-7 join on
#: dgx1 GPUs 0-3, healthy and under fuzz plan 0 (faults never change
#: what a join computes).
GOLDEN_MATCH_DIGEST = (
    "70e517236c8042adcaee1599d0161b5e6ca7c0dd5e659a57930e3e8939cb6797"
)
GOLDEN_MATCHES_REAL = 41816
#: Simulated shuffle time of that join (seconds, exact float): pins the
#: timing model, which the digest alone cannot see.
GOLDEN_SHUFFLE_ELAPSED = 0.00022957320561188793


@pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "fuzz-plan-0"])
def test_join_matches_golden_constants(dgx1, faulted):
    """End-to-end MG-Join against committed constants, so a change to
    the single engine (or anything it drives) cannot drift silently."""
    from repro.core import MGJoin, MGJoinConfig
    from repro.workloads import WorkloadSpec, generate_workload

    workload = generate_workload(
        WorkloadSpec(
            gpu_ids=FUZZ_GPUS,
            logical_tuples_per_gpu=1 * MB,
            real_tuples_per_gpu=4096,
            key_zipf=0.5,
            seed=7,
        )
    )
    result = MGJoin(
        dgx1,
        config=MGJoinConfig(materialize=True),
        policy=AdaptiveArmPolicy(),
        faults=_fuzz_plan(dgx1, 0) if faulted else None,
    ).run(workload)
    assert result.match_digest == GOLDEN_MATCH_DIGEST
    assert result.matches_real == GOLDEN_MATCHES_REAL
    assert result.shuffle_report.elapsed == GOLDEN_SHUFFLE_ELAPSED
