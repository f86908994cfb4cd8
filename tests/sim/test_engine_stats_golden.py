"""Golden kernel counters: the dispatch order itself is a gate.

``test_fastpath_equivalence.py`` proves the fast and the reference
kernel agree, but a change that moves both the same way (an extra or a
missing same-instant step, a reordered same-instant tie) passes it.  Here
each scenario pins all three ``engine.stats`` counters and the simulated
elapsed time to constants, so any change to how many callbacks the
per-packet path schedules, or in which order they run, fails loudly.

The scenarios cover every branch of the packet path: staged (multi-link)
hops, credit waits that block and time out, tamper delay and hold
sleeps on a staged hop, and arbitrated transfers of served queries.
"""

import random

import pytest

from repro.faults.plan import build_preset
from repro.routing import AdaptiveArmPolicy, DirectPolicy
from repro.serve import QueryScheduler, synthetic_requests
from repro.sim import Engine, FlowMatrix, ShuffleConfig, ShuffleSimulator
from repro.sim.fabric import Fabric
from repro.sim.integrity import PacketTamperer
from repro.sim.shuffle import ShuffleGroup
from repro.topology.links import LinkType
from repro.topology.multinode import multi_node_dgx1

MB = 1024 * 1024


class EngineCapture:
    """An ``engine_factory`` that remembers the engine it built."""

    def __init__(self) -> None:
        self.engine: Engine | None = None

    def __call__(self) -> Engine:
        self.engine = Engine()
        return self.engine


class EmptyBridge:
    """Crash bridge that reassigns nothing (the shuffle layer alone)."""

    def on_gpu_dead(self, dead_gpu, survivors):
        return FlowMatrix()


def skewed_flows(gpus):
    flows = FlowMatrix()
    for src in gpus:
        for dst in gpus:
            if src != dst:
                flows.add(src, dst, (12 if dst == gpus[0] else 4) * MB)
    return flows


def unpaced(**overrides):
    return ShuffleConfig(injection_rate=None, consume_rate=None, **overrides)


def simulate(machine, gpus, flows, policy, config, **kwargs):
    capture = EngineCapture()
    report = ShuffleSimulator(
        machine, gpus, config, engine_factory=capture, **kwargs
    ).run(flows, policy)
    return capture.engine.stats, report.elapsed


def adaptive_skewed(dgx1):
    gpus = tuple(range(8))
    return simulate(dgx1, gpus, skewed_flows(gpus), AdaptiveArmPolicy(), unpaced())


def multinode_nic(dgx1):
    machine = multi_node_dgx1(2)
    gpus = tuple(range(16))
    return simulate(
        machine, gpus, FlowMatrix.all_to_all(gpus, 4 * MB),
        AdaptiveArmPolicy(), unpaced(),
    )


def credit_bound(dgx1):
    """Two-slot buffers and a slow consumer: ``acquire`` blocks."""
    gpus = (0, 1, 2, 3)
    config = ShuffleConfig(
        injection_rate=None, consume_rate=2e9, batch_size=2, buffer_slots=2
    )
    return simulate(
        dgx1, gpus, FlowMatrix.all_to_all(gpus, 16 * MB),
        AdaptiveArmPolicy(), config,
    )


def crash_credit_timeout(dgx1):
    """Senders blocked on a crashed GPU's credits give up and recover."""
    gpus = (0, 1, 2, 3)
    config = ShuffleConfig(
        injection_rate=None, consume_rate=2e9, batch_size=2, buffer_slots=2
    )
    plan = build_preset("gpu-crash", dgx1, 0.003, seed=0, gpu_ids=gpus)
    return simulate(
        dgx1, gpus, FlowMatrix.all_to_all(gpus, 16 * MB),
        AdaptiveArmPolicy(), config, faults=plan, recovery_bridge=EmptyBridge(),
    )


def packet_reorder(dgx1):
    gpus = (0, 1, 4, 5)
    plan = build_preset("packet-reorder", dgx1, 0.0005, seed=1, gpu_ids=gpus)
    return simulate(
        dgx1, gpus, FlowMatrix.all_to_all(gpus, 16 * MB),
        DirectPolicy(), unpaced(verify_transport=True), faults=plan,
    )


def staged_tamper(dgx1):
    """Reorder holds on every PCIe link, so a staged hop sleeps both
    before its first onward link and between later ones."""
    gpus = (0, 5)
    capture = EngineCapture()
    fabric = Fabric(dgx1, unpaced(verify_transport=True), engine_factory=capture)
    flows = FlowMatrix()
    flows.add(0, 5, 16 * MB)
    flows.add(5, 0, 16 * MB)
    group = ShuffleGroup(fabric, gpus, flows, DirectPolicy())
    tamperer = PacketTamperer(
        kind="packet-reorder", magnitude=0.5, rng=random.Random(3)
    )
    for channel in fabric.links.values():
        if channel.spec.link_type is not LinkType.NVLINK:
            channel.tamper = tamperer
    group.start()
    capture.engine.run()
    group.check_conservation()
    return capture.engine.stats, group.elapsed


def served_fair(dgx1):
    """Four concurrent queries share the links through the arbiter."""
    capture = EngineCapture()
    report = QueryScheduler(
        dgx1,
        synthetic_requests(4, gpus=4, tuples=1024),
        policy_factory=AdaptiveArmPolicy,
        max_in_flight=4,
        engine_factory=capture,
    ).run()
    assert report.completed == 4
    return capture.engine.stats, tuple(o.join_time for o in report.outcomes)


def stats(events, ready, heap):
    return {
        "events_scheduled": events,
        "ready_dispatches": ready,
        "heap_dispatches": heap,
    }


#: scenario -> (engine.stats, simulated elapsed).  The elapsed times are
#: the simulation's results and never move; the counters move only with
#: a deliberate change to the kernel's dispatch order, re-recorded here
#: with every old -> new value listed in CHANGES.md.
GOLDEN = {
    adaptive_skewed: (stats(990, 367, 623), 0.0013671982500000003),
    multinode_nic: (stats(4022, 849, 3173), 0.008716608104999989),
    credit_bound: (stats(834, 308, 526), 0.023197102079999997),
    crash_credit_timeout: (stats(734, 227, 423), 0.02219046944),
    packet_reorder: (stats(546, 122, 424), 0.0026204076250000014),
    staged_tamper: (stats(234, 30, 204), 0.003618250625),
    served_fair: (
        stats(520, 264, 256),
        (
            2.8651273304473305e-05,
            2.9973473304473304e-05,
            3.26168733044733e-05,
            3.1298368542568544e-05,
        ),
    ),
}


@pytest.mark.parametrize("scenario", list(GOLDEN), ids=lambda s: s.__name__)
def test_engine_stats_and_elapsed_match_golden(dgx1, scenario):
    assert scenario(dgx1) == GOLDEN[scenario]
