"""The link timeline sampler: recording, probing, bucketing."""

import pytest

from repro.obs.analyze import LinkTimelineSampler
from repro.obs.analyze.timeline import TransferSample
from repro.routing import DirectPolicy
from repro.sim import Fabric, FlowMatrix, ShuffleSimulator

MB = 1024 * 1024


class _StubSpec:
    def __init__(self, link_id):
        self.link_id = link_id

    def __str__(self):
        return f"link{self.link_id}"


class _StubChannel:
    def __init__(self, link_id, delay=0.0):
        self.spec = _StubSpec(link_id)
        self.delay = delay

    def queue_delay(self):
        return self.delay


class _StubEngine:
    def __init__(self):
        self.now = 0.0
        self.pending = 0
        self.scheduled = []

    def schedule(self, delay, callback):
        self.scheduled.append((delay, callback))

    def every(self, interval, callback):
        self.scheduled.append((interval, callback))


def _bound_sampler(interval=None):
    sampler = LinkTimelineSampler(sample_interval=interval)
    engine = _StubEngine()
    channel = _StubChannel(3)
    sampler.bind(engine, {3: channel})
    return sampler, engine, channel


def test_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        LinkTimelineSampler(sample_interval=0.0)


def test_bind_attaches_and_schedules_probe(dgx1):
    sampler = LinkTimelineSampler(sample_interval=1e-4)
    fabric = Fabric(dgx1, recorders=(sampler,))
    assert fabric.links
    assert all(sampler in channel.recorders for channel in fabric.links.values())
    assert sampler.engine is fabric.engine
    fabric.engine.schedule(5.5e-4, lambda: None)
    fabric.engine.run()
    # Five ticks before the last real event, one after it ends the chain.
    assert sampler.probe_count == 6


def test_bind_without_interval_schedules_nothing():
    sampler, engine, _ = _bound_sampler(interval=None)
    assert engine.scheduled == []


def test_rebinding_clears_previous_run():
    sampler, engine, channel = _bound_sampler()
    engine.now = 1.0
    sampler.record_queue(channel)
    sampler.bind(engine, {3: channel})
    assert sampler.queue_delay_at(3, 2.0) == 0.0


def test_queue_delay_lookup_is_strictly_before():
    """A decision's own same-timestamp commits must stay invisible."""
    sampler, engine, channel = _bound_sampler()
    channel.delay = 0.5
    engine.now = 1.0
    sampler.record_queue(channel)
    channel.delay = 2.0
    engine.now = 3.0
    sampler.record_queue(channel)
    assert sampler.queue_delay_at(3, 0.5) == 0.0  # before any sample
    assert sampler.queue_delay_at(3, 1.0) == 0.0  # strictly before 1.0
    assert sampler.queue_delay_at(3, 2.0) == 0.5
    assert sampler.queue_delay_at(3, 3.0) == 0.5  # strictly before 3.0
    assert sampler.queue_delay_at(3, 9.0) == 2.0
    assert sampler.queue_delay_at(99, 9.0) == 0.0  # unknown link


def test_window_queries():
    sampler, engine, channel = _bound_sampler()
    sampler.record_transfer(channel, submit=0.0, start=1.0, end=3.0, nbytes=100)
    sampler.record_transfer(channel, submit=2.0, start=3.0, end=4.0, nbytes=50)
    assert sampler.busy_time(3, 0.0, 10.0) == pytest.approx(3.0)
    assert sampler.busy_time(3, 2.0, 3.0) == pytest.approx(1.0)
    # Half of the first transfer's service window -> half its bytes.
    assert sampler.bytes_in_window(3, 1.0, 2.0) == pytest.approx(50.0)
    # Waits attribute to the window the transfer was *submitted* in.
    assert sampler.queueing_time(3, 0.0, 1.0) == pytest.approx(1.0)
    assert sampler.queueing_time(3, 1.0, 5.0) == pytest.approx(1.0)


def test_zero_duration_run_yields_empty_timeline():
    sampler, _, _ = _bound_sampler()
    timeline = sampler.timeline(num_buckets=60)
    assert sampler.horizon == 0.0
    assert timeline.num_buckets == 0
    assert timeline.bucket_width == 0.0
    assert timeline.series == {}
    assert timeline.ranked() == []


def test_timeline_rejects_bad_bucket_count():
    sampler, _, _ = _bound_sampler()
    with pytest.raises(ValueError):
        sampler.timeline(num_buckets=0)


def test_bucketing_prorates_utilization_and_bytes():
    sampler, engine, channel = _bound_sampler()
    # One transfer busy over [1, 3) of a [0, 4) horizon -> 50% overall.
    sampler.record_transfer(channel, submit=1.0, start=1.0, end=3.0, nbytes=80)
    timeline = sampler.timeline(num_buckets=4, horizon=4.0)
    series = timeline.series[3]
    assert series.utilization == pytest.approx([0.0, 1.0, 1.0, 0.0])
    assert series.bytes == pytest.approx([0.0, 40.0, 40.0, 0.0])
    assert series.mean_utilization == pytest.approx(0.5)
    assert max(series.utilization) == 1.0
    assert series.total_bytes == pytest.approx(80.0)


def test_queue_series_carries_last_value_forward():
    sampler, engine, channel = _bound_sampler()
    sampler.record_transfer(channel, submit=0.0, start=0.0, end=4.0, nbytes=1)
    channel.delay = 0.25
    engine.now = 0.5
    sampler.record_queue(channel)
    timeline = sampler.timeline(num_buckets=4, horizon=4.0)
    # Sample lands in bucket 0; buckets 1-3 inherit the step value.
    assert timeline.series[3].queue_delay == pytest.approx([0.25] * 4)


def test_instrumented_shuffle_records_and_terminates(tiny_machine):
    """The periodic probe must not keep the finished engine alive."""
    sampler = LinkTimelineSampler(sample_interval=50e-6)
    simulator = ShuffleSimulator(tiny_machine, sampler=sampler)
    flows = FlowMatrix.all_to_all(tuple(tiny_machine.gpu_ids), 8 * MB)
    report = simulator.run(flows, DirectPolicy())  # returning = terminating
    assert sampler.probe_count > 0
    assert sampler.engine.pending == 0
    assert sampler.horizon > 0.0
    assert sampler.horizon <= report.elapsed * 1.01
    assert len(sampler.deliveries) == report.packets_delivered
    for samples in sampler.transfers.values():
        for sample in samples:
            assert sample.submit <= sample.start <= sample.end


def test_single_packet_flow(tiny_machine):
    """A one-packet run still produces a coherent timeline."""
    sampler = LinkTimelineSampler()
    flows = FlowMatrix()
    flows.add(0, 1, 1 * MB)  # below packet_size -> exactly one packet
    report = ShuffleSimulator(tiny_machine, sampler=sampler).run(
        flows, DirectPolicy()
    )
    assert report.packets_delivered == 1
    assert len(sampler.deliveries) == 1
    delivery = sampler.deliveries[0]
    assert delivery.latency >= delivery.ideal_latency > 0.0
    assert delivery.queueing == pytest.approx(
        delivery.latency - delivery.ideal_latency
    )
    timeline = sampler.timeline(num_buckets=8)
    assert timeline.num_buckets == 8
    busiest = timeline.ranked(top=1)[0]
    assert max(busiest.utilization) > 0.0


def test_transfer_sample_wait_and_service():
    sample = TransferSample(submit=1.0, start=2.5, end=4.0, nbytes=10)
    assert sample.wait == pytest.approx(1.5)
    assert sample.service == pytest.approx(1.5)


def test_sampled_run_matches_link_stats(adaptive_run):
    """Sampled busy time must agree with the channels' own accounting."""
    sampler = adaptive_run.sampler
    report = adaptive_run.report
    horizon = sampler.horizon
    for link_id, stats in report.link_stats.items():
        sampled = sampler.busy_time(link_id, 0.0, horizon + 1.0)
        assert sampled == pytest.approx(stats.busy_time, rel=1e-9)
        total = sum(s.nbytes for s in sampler.transfers.get(link_id, ()))
        assert total == stats.bytes_sent


def test_probe_samples_every_link_at_the_tick():
    sampler = LinkTimelineSampler(sample_interval=1.0)
    engine = _StubEngine()
    channels = {3: _StubChannel(3, delay=0.5), 4: _StubChannel(4, delay=1.5)}
    sampler.bind(engine, channels)
    (_, probe), = engine.scheduled
    engine.now = 1.0
    probe()
    channels[3].delay = 2.5
    engine.now = 2.0
    probe()
    assert sampler.probe_count == 2
    assert sampler.queue_delay_at(3, 1.5) == 0.5
    assert sampler.queue_delay_at(3, 9.0) == 2.5
    assert sampler.queue_delay_at(4, 9.0) == 1.5


def test_rebound_sampler_probes_into_fresh_rows():
    sampler = LinkTimelineSampler(sample_interval=1.0)
    engine = _StubEngine()
    channel = _StubChannel(3, delay=0.5)
    sampler.bind(engine, {3: channel})
    engine.now = 1.0
    engine.scheduled[-1][1]()
    sampler.bind(engine, {3: channel})
    channel.delay = 0.75
    engine.now = 2.0
    engine.scheduled[-1][1]()
    assert sampler.probe_count == 1
    assert sampler.queue_delay_at(3, 1.5) == 0.0
    assert sampler.queue_delay_at(3, 9.0) == 0.75


@pytest.mark.parametrize(
    "samples,expected",
    [
        # A spike and a drop in one bucket: later buckets read the drop.
        (((0.1, 5.0), (0.2, 0.0)), [5.0, 0.0, 0.0, 0.0]),
        # 5.0 holds over [1.0, 1.5) before the 1.0 sample lands.
        (((0.5, 5.0), (1.5, 1.0)), [5.0, 5.0, 1.0, 1.0]),
    ],
)
def test_queue_bucket_is_the_step_function_max(samples, expected):
    sampler, engine, channel = _bound_sampler()
    sampler.record_transfer(channel, submit=0.0, start=0.0, end=4.0, nbytes=1)
    for when, delay in samples:
        engine.now, channel.delay = when, delay
        sampler.record_queue(channel)
    timeline = sampler.timeline(num_buckets=4, horizon=4.0)
    assert timeline.series[3].queue_delay == expected
