"""Cost-model conformance probe: residual accounting + sim integration."""

from types import SimpleNamespace

import pytest

from repro.obs import Observer
from repro.obs.conformance import ConformanceProbe, _percentile
from repro.routing import AdaptiveArmPolicy
from repro.sim import FlowMatrix, ShuffleSimulator

MB = 1024 * 1024


def fake_packet(created_at=0.0, attempts=0, fallback=False):
    return SimpleNamespace(
        created_at=created_at, attempts=attempts, fallback=fallback
    )


class TestPercentile:
    def test_empty_and_single(self):
        assert _percentile([], 95) == 0.0
        assert _percentile([3.0], 50) == 3.0

    def test_interpolates(self):
        assert _percentile([0.0, 10.0], 50) == pytest.approx(5.0)
        assert _percentile([0.0, 1.0, 2.0, 3.0, 4.0], 95) == pytest.approx(3.8)


class TestProbeAccounting:
    def test_register_and_record_residual(self):
        probe = ConformanceProbe()
        packet = fake_packet(created_at=1.0)
        probe.register(packet, (0.002, 0.001, 7))
        probe.record_delivery(packet, now=1.004)
        assert probe.count == 1
        assert probe.residual_sum == pytest.approx(0.001)
        assert probe.underpredicted == 1
        assert 7 in probe.links

    def test_unregistered_delivery_is_noop(self):
        probe = ConformanceProbe()
        probe.record_delivery(fake_packet(), now=1.0)
        assert probe.count == 0

    def test_undelivered_packet_never_scores_a_later_one(self):
        # A packet a crash discards is registered but never delivered.
        # Once it is dropped, a later packet may take its id; that packet
        # was never registered and must not count as a transfer.
        probe = ConformanceProbe()
        for _ in range(64):
            probe.register(fake_packet(), (0.001, 0.0, 1))
            probe.record_delivery(fake_packet(created_at=0.5), now=1.0)
        assert probe.count == 0

    def test_retried_packets_counted(self):
        probe = ConformanceProbe()
        packet = fake_packet(created_at=0.0, attempts=2)
        probe.register(packet, (0.001, 0.0, 3))
        probe.record_delivery(packet, now=0.01)
        assert probe.retried == 1

    def test_reservoir_caps_but_aggregates_keep_counting(self):
        probe = ConformanceProbe(max_samples=2)
        for index in range(5):
            packet = fake_packet(created_at=0.0)
            probe.register(packet, (0.001, 0.0, index))
            probe.record_delivery(packet, now=0.002)
        assert probe.count == 5
        assert len(probe._residuals) == 2

    def test_drift_ratio(self):
        probe = ConformanceProbe()
        assert probe.drift_ratio == 0.0  # no predictions yet
        packet = fake_packet(created_at=0.0)
        probe.register(packet, (0.01, 0.0, 1))
        probe.record_delivery(packet, now=0.015)
        assert probe.drift_ratio == pytest.approx(0.5)

    def test_policy_comes_from_the_first_decision(self):
        probe = ConformanceProbe()
        probe.record_decision(SimpleNamespace(policy="direct"))
        probe.record_decision(SimpleNamespace(policy="mg-join"))
        assert probe.policy == "direct"
        named = ConformanceProbe(policy="given")
        named.record_decision(SimpleNamespace(policy="direct"))
        assert named.policy == "given"

    def test_summary_and_render_empty(self):
        probe = ConformanceProbe()
        summary = probe.summary()
        assert summary["count"] == 0
        assert summary["drift_ratio"] == 0.0
        lines = probe.render()
        assert any("no routed transfers" in line for line in lines)

    def test_worst_links_ranked_by_abs_residual(self):
        probe = ConformanceProbe()
        for link, residual in ((1, 0.001), (2, 0.005), (3, 0.002)):
            packet = fake_packet(created_at=0.0)
            probe.register(packet, (0.001, 0.0, link))
            probe.record_delivery(packet, now=0.001 + residual)
        ranked = probe.worst_links(top=2)
        assert [entry["link"] for entry in ranked] == [2, 3]
        assert ranked[0]["abs_share"] == pytest.approx(0.625)


class TestSimulatorIntegration:
    @pytest.fixture(scope="class")
    def instrumented(self, dgx1):
        gpu_ids = tuple(dgx1.gpu_ids)
        flows = FlowMatrix.all_to_all(gpu_ids, 8 * MB)
        baseline = ShuffleSimulator(dgx1, gpu_ids).run(
            flows, AdaptiveArmPolicy()
        )
        observer = Observer()
        observer.conformance = ConformanceProbe()
        report = ShuffleSimulator(dgx1, gpu_ids, observer=observer).run(
            flows, AdaptiveArmPolicy()
        )
        return baseline, report, observer

    def test_probe_sees_every_delivered_packet(self, instrumented):
        _, report, observer = instrumented
        probe = observer.conformance
        assert probe.count > 0
        assert not probe._pending, "packets armed but never delivered"
        assert probe.policy == "mg-join"  # from the first decision

    def test_probe_does_not_perturb_the_simulation(self, instrumented):
        baseline, report, _ = instrumented
        assert report.elapsed == baseline.elapsed
        assert report.throughput == baseline.throughput

    def test_exported_metrics_land_in_registry(self, instrumented):
        _, _, observer = instrumented
        probe = observer.conformance
        assert observer.metrics.value("conformance.count") == float(probe.count)
        assert observer.metrics.value(
            "conformance.drift_ratio"
        ) == pytest.approx(probe.drift_ratio)

    def test_summary_is_stream_event_shaped(self, instrumented):
        from repro.obs.stream import validate_event

        _, _, observer = instrumented
        event = dict(
            observer.conformance.summary(), v=1, type="conformance", t=0.0,
            clock="sim",
        )
        assert validate_event(event) == []

    def test_render_names_bottleneck_links(self, instrumented):
        _, _, observer = instrumented
        text = "\n".join(observer.conformance.render())
        assert "cost-model conformance" in text
        assert "drift by predicted bottleneck link" in text


def test_drain_drops_entries_a_crash_left_pending(monkeypatch, capsys):
    """Packets a crash discarded are never delivered; once the engine
    has drained, their entries (and the packets they hold) are dropped
    while every delivered transfer is still scored."""
    import repro.cli as cli
    from repro.obs.analyze import ObservedRun

    runs = []

    class Recorded(ObservedRun):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            runs.append(self)

    monkeypatch.setattr(cli, "ObservedRun", Recorded)
    assert cli.main([
        "analyze", "--mode", "join", "--gpus", "4", "--tuples-per-gpu", "1M",
        "--real-tuples", "4K", "--conformance", "--chaos", "gpu-crash",
    ]) == 0
    capsys.readouterr()
    (run,) = runs
    probe = run.observer.conformance
    assert probe.count == 14
    assert probe._pending == {}
