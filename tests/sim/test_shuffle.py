"""The shuffle simulator end to end (small flows for speed)."""

import pytest

from repro.routing import (
    AdaptiveArmPolicy,
    BandwidthPolicy,
    CentralizedPolicy,
    DirectPolicy,
    HopCountPolicy,
    LatencyPolicy,
)
from repro.sim import FlowMatrix, ShuffleConfig, ShuffleSimulator

MB = 1024 * 1024


def small_config(**overrides):
    defaults = dict(injection_rate=None, consume_rate=None)
    defaults.update(overrides)
    return ShuffleConfig(**defaults)


class TestFlowMatrix:
    def test_add_and_total(self):
        flows = FlowMatrix()
        flows.add(0, 1, 100)
        flows.add(0, 1, 50)
        flows.add(1, 0, 25)
        assert flows.flows[(0, 1)] == 150
        assert flows.total_bytes == 175

    def test_self_flows_ignored(self):
        flows = FlowMatrix()
        flows.add(2, 2, 1000)
        assert flows.total_bytes == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FlowMatrix().add(0, 1, -5)

    def test_all_to_all(self):
        flows = FlowMatrix.all_to_all((0, 1, 2), 10)
        assert len(flows.flows) == 6
        assert flows.total_bytes == 60
        assert flows.outgoing(0) == {1: 10, 2: 10}


class TestShuffleSimulator:
    def test_everything_is_delivered(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1, 2, 3), 8 * MB)
        report = ShuffleSimulator(dgx1, (0, 1, 2, 3), small_config()).run(
            flows, DirectPolicy()
        )
        assert report.delivered_bytes == flows.total_bytes
        assert report.packets_delivered == 4 * 3 * 4  # 8MB / 2MB packets

    def test_throughput_definition(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1), 16 * MB)
        report = ShuffleSimulator(dgx1, (0, 1), small_config()).run(
            flows, DirectPolicy()
        )
        assert report.throughput == pytest.approx(
            report.payload_bytes / report.elapsed
        )

    def test_single_nvlink_pair_saturates_link(self, dgx1):
        """One direction of one NVLink x1 pair ~= 25 GB/s."""
        flows = FlowMatrix()
        flows.add(0, 1, 64 * MB)
        report = ShuffleSimulator(dgx1, (0, 1), small_config()).run(
            flows, DirectPolicy()
        )
        achieved = report.payload_bytes / report.elapsed
        assert achieved == pytest.approx(25e9, rel=0.08)

    def test_direct_policy_all_packets_single_hop(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1, 4, 5), 4 * MB)
        report = ShuffleSimulator(dgx1, (0, 1, 4, 5), small_config()).run(
            flows, DirectPolicy()
        )
        assert report.average_hops == 1.0

    def test_adaptive_uses_multi_hop_for_staged_pairs(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 5, 64 * MB)  # no NVLink between 0 and 5
        report = ShuffleSimulator(dgx1, (0, 1, 5), small_config()).run(
            flows, AdaptiveArmPolicy()
        )
        assert report.average_hops > 1.0

    def test_multi_hop_beats_direct_on_staged_pair(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 5, 64 * MB)
        sim = ShuffleSimulator(dgx1, (0, 1, 5), small_config())
        direct = sim.run(flows, DirectPolicy())
        adaptive = sim.run(flows, AdaptiveArmPolicy())
        assert adaptive.elapsed < direct.elapsed

    def test_static_policies_complete(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 3, 4, 7), 4 * MB)
        sim = ShuffleSimulator(dgx1, (0, 3, 4, 7), small_config())
        for policy in (BandwidthPolicy(), HopCountPolicy(), LatencyPolicy()):
            report = sim.run(flows, policy)
            assert report.delivered_bytes == flows.total_bytes

    def test_centralized_charges_sync_time(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1, 2, 3), 8 * MB)
        sim = ShuffleSimulator(dgx1, (0, 1, 2, 3), small_config())
        report = sim.run(flows, CentralizedPolicy())
        assert report.sync_time_total > 0.0

    def test_injection_pacing_slows_completion(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1, 2, 3), 8 * MB)
        fast = ShuffleSimulator(dgx1, (0, 1, 2, 3), small_config()).run(
            flows, DirectPolicy()
        )
        paced = ShuffleSimulator(
            dgx1, (0, 1, 2, 3), small_config(injection_rate=1e9)
        ).run(flows, DirectPolicy())
        assert paced.elapsed > fast.elapsed

    def test_consume_rate_extends_consume_finish(self, dgx1):
        flows = FlowMatrix.all_to_all((0, 1), 16 * MB)
        report = ShuffleSimulator(
            dgx1, (0, 1), small_config(consume_rate=1e9)
        ).run(flows, DirectPolicy())
        assert report.consume_finish_time > report.elapsed

    def test_bisection_utilization_bounded(self, dgx1):
        flows = FlowMatrix.all_to_all(tuple(range(8)), 2 * MB)
        report = ShuffleSimulator(dgx1, tuple(range(8)), small_config()).run(
            flows, AdaptiveArmPolicy()
        )
        assert 0.0 <= report.bisection_utilization <= 1.0

    def test_foreign_flow_gpus_rejected(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 7, MB)
        with pytest.raises(ValueError):
            ShuffleSimulator(dgx1, (0, 1)).run(flows, DirectPolicy())

    def test_needs_two_gpus(self, dgx1):
        with pytest.raises(ValueError):
            ShuffleSimulator(dgx1, (0,))

    def test_partial_packet_for_non_multiple_sizes(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 1, 3 * MB)  # 2 MB + 1 MB packets
        report = ShuffleSimulator(dgx1, (0, 1), small_config()).run(
            flows, DirectPolicy()
        )
        assert report.packets_delivered == 2
        assert report.delivered_bytes == 3 * MB

    def test_only_participating_gpus_relay(self, dgx1):
        """Idle machine GPUs never relay a shuffle's packets (§4.1)."""
        flows = FlowMatrix()
        flows.add(0, 5, 64 * MB)  # only NVLink path is via idle GPUs
        report = ShuffleSimulator(dgx1, (0, 5), small_config()).run(
            flows, AdaptiveArmPolicy()
        )
        assert report.average_hops == 1.0  # nothing to relay through
        assert report.delivered_bytes == 64 * MB

    def test_buffer_syncs_counted_under_pressure(self, dgx1):
        flows = FlowMatrix()
        flows.add(0, 1, 128 * MB)
        config = small_config(buffer_slots=8, consume_rate=5e9)
        report = ShuffleSimulator(dgx1, (0, 1), config).run(
            flows, DirectPolicy()
        )
        assert report.buffer_sync_count > 0


class TestRogueRoutePolicies:
    """A policy bug must surface as a clear SimulationError naming the
    flow and the offending route — never a hang or a KeyError."""

    def _run(self, dgx1, policy):
        from repro.sim import SimulationError

        flows = FlowMatrix()
        flows.add(0, 5, 4 * MB)
        with pytest.raises(SimulationError) as excinfo:
            ShuffleSimulator(dgx1, (0, 1, 5), small_config()).run(
                flows, policy
            )
        return str(excinfo.value)

    def test_disconnected_route_rejected(self, dgx1):
        from repro.routing.base import RoutingPolicy
        from repro.topology import Route

        class Teleporter(RoutingPolicy):
            name = "teleporter"

            def choose_route(self, context, src, dst, batch_bytes,
                             packet_bytes):
                return Route((src, 6, dst))  # 6 not NVLink-adjacent to 5

        message = self._run(dgx1, Teleporter())
        assert "gpu0->gpu5" in message
        assert "gpu6" in message

    def test_route_with_wrong_endpoints_rejected(self, dgx1):
        from repro.routing.base import RoutingPolicy
        from repro.topology import Route

        class WrongWay(RoutingPolicy):
            name = "wrong-way"

            def choose_route(self, context, src, dst, batch_bytes,
                             packet_bytes):
                return Route((src, 1))  # never reaches dst

        message = self._run(dgx1, WrongWay())
        assert "gpu0->gpu5" in message
        assert "endpoints" in message
