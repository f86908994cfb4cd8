"""The record-driven ARM loop against the per-link reference rule.

``arm_value`` walks a route's static record and reads the board's flat
per-link lists.  These tests pin it to the rule it replaced — one
``queue_delay`` / ``published_queue_delay`` call per link, own links
exact, remote links through the last broadcast — with ``==``, never
approx: the accumulation order must be unchanged, bit for bit.
"""

import random

import pytest

from repro.obs import Observer
from repro.routing.adaptive import arm_value
from repro.routing.base import RoutingContext
from repro.sim import Engine, LinkChannel, LinkStateBoard
from repro.sim.linksim import LinkArbiter
from repro.topology import RouteEnumerator, dgx1_topology
from repro.topology.links import bottleneck_bandwidth
from repro.topology.routes import physical_links

PACKET = 2 * 1024 * 1024


def reference_queue_delay_seen_by(context, viewer_gpu, spec, observations):
    """The per-link queue-view rule as it stood before the record loop."""
    if spec.src.is_gpu and spec.src.index == viewer_gpu:
        return context.links[spec.link_id].queue_delay()
    published = context.board.published_queue_delay(spec.link_id)
    if observations is not None:
        actual = context.links[spec.link_id].queue_delay()
        observations.append(abs(actual - published))
    return published


def reference_arm(context, route, packet_bytes, viewer_gpu=None, exact=False,
                  observations=None):
    links = physical_links(context.machine, route)
    transmission = packet_bytes / bottleneck_bandwidth(list(links), packet_bytes)
    dynamic_delay = 0.0
    for spec in links:
        if exact:
            queue = context.links[spec.link_id].queue_delay()
        else:
            queue = reference_queue_delay_seen_by(
                context,
                viewer_gpu if viewer_gpu is not None else route.src,
                spec,
                observations,
            )
        dynamic_delay += queue + spec.latency
    return transmission + dynamic_delay


def make_context(machine, observer=None):
    engine = Engine()
    board = LinkStateBoard(engine, broadcast_latency=5e-6, quantum=20e-6)
    links = {
        spec.link_id: LinkChannel(engine, spec, board) for spec in machine.links
    }
    return RoutingContext(
        engine=engine,
        machine=machine,
        enumerator=RouteEnumerator(machine),
        links=links,
        board=board,
        num_gpus=len(machine.gpu_ids),
        observer=observer,
    )


def scramble(context, rng):
    """Drive random traffic so queues, commits, arbiters, fault
    penalties and in-flight broadcasts all differ per link."""
    channels = list(context.links.values())
    for channel in rng.sample(channels, len(channels) // 4):
        if channel.arbiter is None:
            channel.arbiter = LinkArbiter(channel)
        channel.arbiter.queued_service = rng.uniform(0.0, 3e-4)
    for _ in range(40):
        channel = rng.choice(channels)
        action = rng.random()
        if action < 0.4:
            channel.transmit(rng.randint(1, 8) * 256 * 1024)
        elif action < 0.7:
            channel.commit(rng.randint(1, 8) * 256 * 1024)
        elif action < 0.85:
            channel.fulfill(rng.uniform(0.0, channel.committed_load))
        else:
            penalty = rng.choice((0.0, rng.uniform(0.0, 1e-3)))
            channel.fault_penalty = penalty
            context.board.publish_fault(channel.spec.link_id, penalty)
        # Stop at arbitrary instants so some broadcasts are still in
        # flight and some queues have partly drained.
        context.engine.run(until=context.engine.now + rng.uniform(0.0, 2e-5))


def candidate_routes(context, rng, pairs=6):
    gpus = context.machine.gpu_ids
    for _ in range(pairs):
        src, dst = rng.sample(gpus, 2)
        yield from context.enumerator.routes(src, dst)


@pytest.mark.parametrize("seed", range(5))
def test_arm_value_matches_reference_rule(seed):
    rng = random.Random(seed)
    context = make_context(dgx1_topology())
    checked = 0
    for _ in range(6):
        scramble(context, rng)
        for route in candidate_routes(context, rng):
            other = rng.choice(context.machine.gpu_ids)
            for viewer in (None, route.src, other):
                for exact in (False, True):
                    assert arm_value(
                        context, route, PACKET, viewer_gpu=viewer, exact=exact
                    ) == reference_arm(
                        context, route, PACKET, viewer_gpu=viewer, exact=exact
                    )
                    checked += 1
    assert checked > 500


def test_observed_staleness_matches_reference_order():
    """An observed evaluation records one staleness sample per remote
    link, in route order, with the reference values."""
    rng = random.Random(7)
    observer = Observer()
    context = make_context(dgx1_topology(), observer=observer)
    expected: list[float] = []
    for _ in range(4):
        scramble(context, rng)
        for route in candidate_routes(context, rng):
            viewer = rng.choice((None, route.src))
            assert arm_value(context, route, PACKET, viewer_gpu=viewer) == (
                reference_arm(context, route, PACKET, viewer_gpu=viewer,
                              observations=expected)
            )
    histogram = observer.metrics.histogram("board.staleness_seconds")
    assert histogram.samples == expected[: len(histogram.samples)]
    assert histogram.count == len(expected) > 0
    total = 0.0
    for value in expected:
        total += value
    assert histogram.total == total


def test_exact_evaluation_never_observes_staleness():
    observer = Observer()
    context = make_context(dgx1_topology(), observer=observer)
    scramble(context, random.Random(3))
    for route in context.enumerator.routes(0, 5):
        arm_value(context, route, PACKET, exact=True)
    assert observer.metrics.histogram("board.staleness_seconds").count == 0


class ReferenceBoard:
    """The change-triggered broadcast rule, on plain dicts."""

    def __init__(self, threshold, quantum):
        self.threshold = threshold
        self.quantum = quantum
        self.last_broadcast: dict[int, float] = {}
        self.broadcast_count = 0

    def publish(self, link, now):
        link_id = link.spec.link_id
        clear_at = link._free_at + link.committed_load
        last_clear_at = self.last_broadcast.get(link_id, 0.0)
        new_delay = max(0.0, clear_at - now)
        last_delay = max(0.0, last_clear_at - now)
        change = abs(new_delay - last_delay)
        if change < max(self.threshold * last_delay, self.quantum):
            return False
        self.last_broadcast[link_id] = clear_at
        self.broadcast_count += 1
        return True


@pytest.mark.parametrize("seed", range(3))
def test_board_publish_decisions_match_reference(seed):
    rng = random.Random(seed)
    machine = dgx1_topology()
    engine = Engine()
    board = LinkStateBoard(engine, broadcast_latency=5e-6, quantum=30e-6)
    reference = ReferenceBoard(board.threshold, board.quantum)
    channels = [LinkChannel(engine, spec) for spec in machine.links]
    decisions = []
    for _ in range(400):
        channel = rng.choice(channels)
        if rng.random() < 0.5:
            channel._free_at = max(channel._free_at, engine.now) + rng.uniform(
                0.0, 2e-4
            )
        else:
            channel.committed_load = rng.choice(
                (0.0, rng.uniform(0.0, 4e-4))
            )
        before = board.broadcast_count
        board.publish(channel)
        broadcast = reference.publish(channel, engine.now)
        decisions.append(broadcast)
        assert (board.broadcast_count - before == 1) is broadcast
        engine.run(until=engine.now + rng.uniform(0.0, 3e-5))
    assert board.broadcast_count == reference.broadcast_count
    assert any(decisions) and not all(decisions)
    assert board.suppressed_count == decisions.count(False)
    # Every delivered broadcast shows the latest clear-at value.
    engine.run()
    for link_id, clear_at in reference.last_broadcast.items():
        assert board.visible_clear_at[link_id] == clear_at


def test_board_broadcasts_on_a_change_of_exactly_the_bound():
    """Ties go to the broadcast: only a change strictly below
    ``max(threshold * last_delay, quantum)`` is suppressed."""
    machine = dgx1_topology()
    engine = Engine()
    board = LinkStateBoard(
        engine, broadcast_latency=0.0, threshold=0.25, quantum=0.5
    )
    channel = LinkChannel(engine, machine.links[0])
    channel.committed_load = 0.5  # exactly one quantum above nothing
    board.publish(channel)
    assert board.broadcast_count == 1
    channel.committed_load = 0.75  # below the quantum: suppressed
    board.publish(channel)
    assert board.broadcast_count == 1
    board.quantum = 1e-9
    channel.committed_load = 0.625  # exactly threshold * 0.5 below
    board.publish(channel)
    assert board.broadcast_count == 2
