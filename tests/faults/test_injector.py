"""Fault models against live links, the state board, and full shuffles."""

import pytest

from repro.faults import (
    LINK_DOWN_PENALTY,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanError,
)
from repro.obs import Observer
from repro.routing import AdaptiveArmPolicy, DirectPolicy
from repro.sim import (
    Engine,
    FlowMatrix,
    LinkChannel,
    LinkStateBoard,
    ShuffleConfig,
    ShuffleSimulator,
)
from repro.topology.links import LinkSpec, LinkType
from repro.topology.nodes import gpu

MB = 1024 * 1024


def make_link(engine, board=None, lanes=1):
    spec = LinkSpec(0, gpu(0), gpu(1), LinkType.NVLINK, lanes=lanes)
    return LinkChannel(engine, spec, board)


def small_config(**overrides):
    defaults = dict(injection_rate=None, consume_rate=None)
    defaults.update(overrides)
    return ShuffleConfig(**defaults)


class TestLinkFaultPrimitives:
    def test_down_link_loses_new_transfers(self):
        engine = Engine()
        link = make_link(engine)
        link.take_down()
        outcome = []
        link.transmit(MB, then=outcome.append)
        engine.run()
        assert outcome == [False]
        assert link.transfers_lost == 1

    def test_take_down_loses_in_flight_transfer(self):
        engine = Engine()
        link = make_link(engine)
        outcome = []
        link.transmit(25_000_000, then=outcome.append)  # ~1 ms of service
        engine.schedule(0.5e-3, link.take_down)
        engine.run()
        assert outcome == [False]
        assert link.transfers_lost == 1

    def test_bring_up_restores_service(self):
        engine = Engine()
        link = make_link(engine)
        link.take_down()
        link.bring_up()
        outcome = []
        link.transmit(MB, then=outcome.append)
        engine.run()
        assert outcome == [True]
        assert link.transfers_lost == 0

    def test_transfer_spanning_a_blackout_is_lost(self):
        """Down-then-up while a transfer is in flight: still lost —
        the outage epoch changed under it."""
        engine = Engine()
        link = make_link(engine)
        outcome = []
        link.transmit(25_000_000, then=outcome.append)
        engine.schedule(0.3e-3, link.take_down)
        engine.schedule(0.4e-3, link.bring_up)
        engine.run()
        assert outcome == [False]

    def test_degraded_bandwidth_stretches_service_time(self):
        engine = Engine()
        link = make_link(engine)
        healthy = link.service_time(MB)
        link.bandwidth_scale = 0.5
        degraded = link.service_time(MB)
        assert degraded - link.spec.latency == pytest.approx(
            2 * (healthy - link.spec.latency)
        )

    def test_fault_penalty_shows_in_queue_delay(self):
        engine = Engine()
        link = make_link(engine)
        assert link.queue_delay() == 0.0
        link.fault_penalty = LINK_DOWN_PENALTY
        assert link.queue_delay() >= LINK_DOWN_PENALTY


class TestFaultBroadcast:
    def test_publish_fault_arrives_after_broadcast_latency(self):
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=1e-3)
        board.publish_fault(0, 0.25)
        engine.run(until=0.5e-3)
        assert board.published_queue_delay(0) == 0.0
        engine.run(until=2e-3)
        assert board.published_queue_delay(0) == pytest.approx(0.25)

    def test_fault_restore_clears_published_penalty(self):
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=1e-3)
        board.publish_fault(0, 0.25)
        engine.schedule(5e-3, board.publish_fault, 0, 0.0)
        engine.run()
        assert board.published_queue_delay(0) == 0.0

    def test_stale_fault_broadcast_cannot_roll_back_newer(self):
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=1e-3)
        board.publish_fault(0, 0.25)
        engine.schedule(0.5e-3, board.publish_fault, 0, 0.0)
        engine.run()
        # The second (restoring) broadcast must win even though the
        # first one's delivery was still in flight when it was sent.
        assert board.published_queue_delay(0) == 0.0


def run_faulted(machine, gpu_ids, flows, plan, policy=None, observer=None,
                config=None):
    simulator = ShuffleSimulator(
        machine,
        gpu_ids,
        config or small_config(),
        faults=plan,
        observer=observer,
    )
    return simulator.run(flows, policy or AdaptiveArmPolicy())


class TestInjectedShuffles:
    def test_blackout_packets_are_retried_and_delivered(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 1, 16 * MB)
        healthy = ShuffleSimulator(dgx1, (0, 1), small_config()).run(
            flows, DirectPolicy()
        )
        plan = FaultPlan(
            name="mid-run-blackout",
            events=(
                FaultEvent(
                    kind=FaultKind.LINK_BLACKOUT,
                    at=0.3 * healthy.elapsed,
                    src=0,
                    dst=1,
                    duration=0.3 * healthy.elapsed,
                ),
            ),
        )
        report = run_faulted(dgx1, (0, 1), flows, plan, DirectPolicy())
        assert report.delivered_bytes == flows.total_bytes
        assert report.faults_injected == 1
        assert report.packet_retries > 0
        assert report.packets_recovered > 0

    def test_link_fail_reroutes_around_the_cut(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1, 2, 3), 8 * MB)
        healthy = ShuffleSimulator(dgx1, (0, 1, 2, 3), small_config()).run(
            flows, AdaptiveArmPolicy()
        )
        plan = FaultPlan(
            name="cut",
            events=(
                FaultEvent(
                    kind=FaultKind.LINK_FAIL,
                    at=0.3 * healthy.elapsed,
                    src=0,
                    dst=1,
                ),
            ),
        )
        report = run_faulted(dgx1, (0, 1, 2, 3), flows, plan)
        assert report.delivered_bytes == flows.total_bytes
        assert report.packet_reroutes > 0

    def test_straggler_slows_but_completes(self, dgx1):
        # Several batches per flow so the mid-run slowdown actually
        # paces later injections (one batch = 8 x 2 MB packets).
        flows = FlowMatrix.all_to_all((0, 1), 64 * MB)
        config = ShuffleConfig()  # keep injection/consume pacing on
        healthy = ShuffleSimulator(dgx1, (0, 1), config).run(
            flows, DirectPolicy()
        )
        plan = FaultPlan(
            name="straggler",
            events=(
                FaultEvent(
                    kind=FaultKind.GPU_STRAGGLER,
                    at=0.1 * healthy.elapsed,
                    gpu=0,
                    duration=0.7 * healthy.elapsed,
                    magnitude=8.0,
                ),
            ),
        )
        report = run_faulted(
            dgx1, (0, 1), flows, plan, DirectPolicy(), config=config
        )
        assert report.delivered_bytes == flows.total_bytes
        assert report.faults_injected == 1
        # The wire stays the bottleneck, but the straggler's 8x-slower
        # consumption must push its pipeline finish out.
        assert report.consume_finish_time > healthy.consume_finish_time

    def test_gpu_crash_drains_through_host_fallback(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1), 8 * MB)
        healthy = ShuffleSimulator(dgx1, (0, 1), small_config()).run(
            flows, DirectPolicy()
        )
        plan = FaultPlan(
            name="crash",
            events=(
                FaultEvent(
                    kind=FaultKind.GPU_CRASH,
                    at=0.4 * healthy.elapsed,
                    gpu=1,
                ),
            ),
        )
        report = run_faulted(dgx1, (0, 1), flows, plan, DirectPolicy())
        assert report.delivered_bytes == flows.total_bytes
        assert report.packet_fallbacks > 0

    def test_fault_counters_reach_observer_metrics(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 1, 16 * MB)
        observer = Observer()
        plan = FaultPlan(
            name="flap",
            events=(
                FaultEvent(
                    kind=FaultKind.LINK_BLACKOUT,
                    at=1e-4,
                    src=0,
                    dst=1,
                    duration=1e-4,
                ),
            ),
        )
        report = run_faulted(
            dgx1, (0, 1), flows, plan, DirectPolicy(), observer=observer
        )
        counters = {
            (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
            for row in observer.metrics.snapshot()["counters"]
        }
        injected = counters[
            ("faults.injected", (("kind", "link-blackout"),))
        ]
        assert injected == 1
        assert counters[("faults.retries", ())] == report.packet_retries
        names = {name for name, _ in counters}
        assert "faults.packets_recovered" in names

    def test_fault_window_span_and_instants_in_observer(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 1, 16 * MB)
        observer = Observer()
        plan = FaultPlan(
            name="flap",
            events=(
                FaultEvent(
                    kind=FaultKind.LINK_BLACKOUT,
                    at=1e-4,
                    src=0,
                    dst=1,
                    duration=1e-4,
                ),
            ),
        )
        run_faulted(dgx1, (0, 1), flows, plan, DirectPolicy(),
                    observer=observer)
        assert observer.spans.find_instants("fault.inject")
        assert observer.spans.find_instants("fault.restore")
        windows = observer.spans.find("fault:link-blackout")
        assert len(windows) == 1
        assert windows[0].duration == pytest.approx(1e-4)

    def test_plan_targeting_foreign_gpu_rejected(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 1, MB)
        plan = FaultPlan(
            name="bad",
            events=(
                FaultEvent(kind=FaultKind.GPU_CRASH, at=0.0, gpu=7),
            ),
        )
        with pytest.raises(FaultPlanError):
            run_faulted(dgx1, (0, 1), flows, plan, DirectPolicy())

    def test_plan_targeting_unlinked_pair_rejected(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 1, MB)
        plan = FaultPlan(
            name="bad",
            events=(
                # 0<->5 has no NVLink on the DGX-1.
                FaultEvent(kind=FaultKind.LINK_FAIL, at=0.0, src=0, dst=5),
            ),
        )
        with pytest.raises(FaultPlanError):
            run_faulted(dgx1, (0, 1), flows, plan, DirectPolicy())


def test_injector_counts_injections(dgx1):
    plan = FaultPlan(
        name="pair",
        events=(
            FaultEvent(kind=FaultKind.LINK_BLACKOUT, at=1e-5, src=0, dst=1,
                       duration=1e-5),
            FaultEvent(kind=FaultKind.LINK_BLACKOUT, at=5e-5, src=2, dst=3,
                       duration=1e-5),
        ),
    )
    flows = FlowMatrix.all_to_all((0, 1, 2, 3), 4 * MB)
    report = ShuffleSimulator(
        dgx1, (0, 1, 2, 3), small_config(), faults=plan
    ).run(flows, AdaptiveArmPolicy())
    assert report.faults_injected == len(plan)
    assert report.delivered_bytes == flows.total_bytes


def test_degrade_window_leaves_no_phantom_committed_load():
    """Regression: a packet routed while its link sagged and submitted
    after the restore must hand back exactly the load it committed.

    Clearing the reservation at the restored bandwidth left about one
    packet's service time of ``committed_load`` behind — above the
    broadcast quantum — so the routing metric kept charging the link
    for the rest of the run."""
    from repro.sim.fabric import Fabric
    from repro.sim.gpusim import Packet
    from repro.sim.shuffle import ShuffleGroup
    from repro.topology import dgx1_topology

    machine = dgx1_topology.__wrapped__()
    config = small_config()
    plan = FaultPlan(
        name="sag",
        events=(
            FaultEvent(kind=FaultKind.LINK_DEGRADE, at=0.0, src=0, dst=1,
                       duration=1e-3, magnitude=0.5),
        ),
    )
    fabric = Fabric(machine, config)
    fabric.bind_faults(plan, set(machine.gpu_ids))
    group = ShuffleGroup(
        fabric, (0, 1), FlowMatrix(), AdaptiveArmPolicy(), faults=plan
    )
    group.start()
    channel = fabric.links[machine.hop_path(0, 1)[0].link_id]
    fabric.engine.run(until=0.5e-3)
    assert channel.bandwidth_scale == 0.5
    packet = Packet(
        flow_src=0,
        flow_dst=1,
        payload_bytes=2 * MB,
        header_bytes=config.header_bytes,
        route=group.enumerator.direct_route(0, 1),
        sequence=0,
    )
    # gpu1's credits stay taken until after the restore, so gpu0's
    # sender submits the packet at the restored bandwidth.
    inbound = group.nodes[1].buffer_from(0)
    while inbound.try_acquire():
        fabric.engine.schedule(1.5e-3, inbound.release)
    node = group.nodes[0]
    node._commit_route(packet)
    node.enqueue(packet)
    assert channel.committed_load > 0.0
    fabric.engine.run(until=1.5e-3)
    assert channel.bandwidth_scale == 1.0
    assert channel.transfers == 0 and channel.committed_load > 0.0
    fabric.engine.run()
    assert channel.transfers == 1
    assert channel.committed_load == 0.0
    assert not packet.pending_links
