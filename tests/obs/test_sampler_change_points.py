"""The timeline probe stores change points and answers as if it did not.

:class:`LinkTimelineSampler` reads every link at each probe tick but
stores a sample only when the link's queue delay differs from its last
recorded value.  :class:`AppendEveryTick` keeps the probe that stores
every tick, and both samplers watch the same deterministic runs: the
``skewed-shuffle`` run of ``test_views_agree.py`` and an 8-GPU shuffle
under an NVLink brown-out, whose degrade penalties change link delays
with no queue event behind them.  Every reader of the samples must
answer the same, bit for bit.
"""

from __future__ import annotations

import math

import pytest

from repro.bench.regression import skewed_flows
from repro.faults.plan import FaultKind, build_preset
from repro.obs.analyze import LinkTimelineSampler, ObservedRun
from repro.routing import AdaptiveArmPolicy
from repro.sim import ShuffleConfig, ShuffleSimulator

MB = 1024 * 1024


class AppendEveryTick(LinkTimelineSampler):
    """Reference sampler: the probe stores every link on every tick."""

    def _probe(self) -> None:
        self.probe_count += 1
        if self._probe_rows is None:
            self._probe_rows = [
                (channel, *self._row(channel.spec.link_id))
                for channel in self._links.values()
            ]
        now = self.engine.now
        for channel, times, delays in self._probe_rows:
            times.append(now)
            delays.append(channel.queue_delay())


def observed_shuffle(machine, sampler_type, faults=None):
    """The ``skewed-shuffle`` view run, optionally under ``faults``."""
    run = ObservedRun(conformance=True)
    run.sampler = sampler_type()
    gpu_ids = tuple(machine.gpu_ids)[:8]
    flows = skewed_flows(gpu_ids, hot_bytes=24 * MB, base_bytes=4 * MB)
    report = ShuffleSimulator(machine, gpu_ids, **run.wiring, faults=faults).run(
        flows, AdaptiveArmPolicy()
    )
    return report, run.observer, run.sampler


def brownout(machine):
    report, _, _ = observed_shuffle(machine, LinkTimelineSampler)
    plan = build_preset(
        "nvlink-brownout", machine, report.elapsed,
        gpu_ids=tuple(machine.gpu_ids)[:8],
    )
    assert plan.events
    assert all(event.kind is FaultKind.LINK_DEGRADE for event in plan.events)
    return plan


def stored(sampler) -> int:
    return sum(len(times) for times, _ in sampler._queue.values())


@pytest.fixture(scope="module")
def plan(dgx1):
    return brownout(dgx1)


@pytest.fixture(scope="module")
def runs(dgx1, plan):
    return {
        name: tuple(
            observed_shuffle(dgx1, sampler_type, faults)
            for sampler_type in (LinkTimelineSampler, AppendEveryTick)
        )
        for name, faults in (("skewed-shuffle", None), ("brownout", plan))
    }


@pytest.mark.parametrize("name", ["skewed-shuffle", "brownout"])
def test_queue_delay_reads_agree(runs, name):
    (_, observer, sampler), (_, _, reference) = runs[name]
    assert sampler._queue.keys() == reference._queue.keys()
    decisions = [
        instant.time for instant in observer.spans.find_instants("arm.decision")
    ]
    assert decisions
    for link_id, (times, _) in reference._queue.items():
        queries = [*times, *(math.nextafter(t, math.inf) for t in times)]
        queries += decisions
        got = [sampler.queue_delay_at(link_id, t).hex() for t in queries]
        want = [reference.queue_delay_at(link_id, t).hex() for t in queries]
        assert got == want, link_id


@pytest.mark.parametrize("name", ["skewed-shuffle", "brownout"])
@pytest.mark.parametrize("num_buckets", [7, 60, 301])
def test_timelines_agree(runs, name, num_buckets):
    (_, _, sampler), (_, _, reference) = runs[name]
    assert sampler.timeline(num_buckets) == reference.timeline(num_buckets)


def test_brownout_penalty_reaches_the_samples_within_a_tick(runs, dgx1, plan):
    """Each degraded link reads its fault penalty one tick after onset."""
    (_, _, sampler), _ = runs["brownout"]
    packet_size = ShuffleConfig().packet_size
    for event in plan.events:
        for src, dst in ((event.src, event.dst), (event.dst, event.src)):
            spec = dgx1.nvlink_between(src, dst)
            penalty = packet_size / spec.bandwidth * (1.0 / event.magnitude - 1.0)
            seen = sampler.queue_delay_at(
                spec.link_id, event.at + 1.5 * sampler.sample_interval
            )
            assert seen >= penalty > 0.0


def test_change_points_store_fewer_samples(runs):
    (_, _, sampler), (_, _, reference) = runs["skewed-shuffle"]
    assert sampler.probe_count == reference.probe_count > 0
    assert stored(sampler) < stored(reference)
