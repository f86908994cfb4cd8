"""Link channels: FIFO queueing, Q_i accounting, the state board."""

import pytest

from repro.sim import Engine, LinkArbiter, LinkChannel, LinkStateBoard
from repro.topology.links import LinkSpec, LinkType
from repro.topology.nodes import gpu


def ignore(delivered):
    """A transfer continuation for tests that only read link state."""


def make_link(engine, board=None, lanes=1):
    spec = LinkSpec(0, gpu(0), gpu(1), LinkType.NVLINK, lanes=lanes)
    return LinkChannel(engine, spec, board)


def test_service_time():
    engine = Engine()
    link = make_link(engine)
    expected = link.spec.latency + 1e6 / link.spec.bandwidth
    assert link.service_time(1e6) == pytest.approx(expected)


def test_single_transfer_completes_after_service_time():
    engine = Engine()
    link = make_link(engine)
    done = []
    link.transmit(1_000_000, then=lambda ok: done.append(engine.now))
    engine.run()
    assert done[0] == pytest.approx(link.service_time(1_000_000))


def test_fifo_queueing_serializes_transfers():
    engine = Engine()
    link = make_link(engine)
    finishes = []
    for name in ("first", "second"):
        link.transmit(
            1_000_000, then=lambda ok, n=name: finishes.append((n, engine.now))
        )
    engine.run()
    service = link.service_time(1_000_000)
    assert finishes[0][1] == pytest.approx(service)
    assert finishes[1][1] == pytest.approx(2 * service)


def test_queue_delay_reflects_backlog():
    engine = Engine()
    link = make_link(engine)
    link.transmit(1_000_000, then=ignore)
    link.transmit(1_000_000, then=ignore)
    assert link.queue_delay() == pytest.approx(2 * link.service_time(1_000_000))


def test_commit_adds_to_queue_delay_and_fulfill_removes():
    engine = Engine()
    link = make_link(engine)
    link.commit(2_000_000)
    assert link.queue_delay() == pytest.approx(link.service_time(2_000_000))
    link.fulfill(2_000_000)
    assert link.queue_delay() == 0.0


@pytest.mark.parametrize(
    "backlog", [2.5e-6, 0.0, -2.5e-6],
    ids=["free-after-now", "free-at-now", "free-before-now"],
)
@pytest.mark.parametrize("committed", [0.0, 1.25e-6], ids=["idle", "committed"])
@pytest.mark.parametrize("arbitrated", [False, True], ids=["fifo", "arbiter"])
@pytest.mark.parametrize("penalty", [0.0, 3.75e-6], ids=["healthy", "penalty"])
def test_queue_delay_is_the_clamped_sum_bit_for_bit(
    backlog, committed, arbitrated, penalty
):
    engine = Engine()
    engine.run(until=1e-3)
    now = engine.now
    link = make_link(engine)
    link._free_at = now + backlog
    link.committed_load = committed
    link.fault_penalty = penalty
    expected = max(0.0, link._free_at - now) + committed
    if arbitrated:
        link.arbiter = LinkArbiter(link)
        link.arbiter.queued_service = 0.5e-6
        expected += link.arbiter.queued_service
    expected += penalty
    assert link.queue_delay().hex() == expected.hex()


def test_busy_time_and_bytes_accumulate():
    engine = Engine()
    link = make_link(engine)
    link.transmit(500_000, then=ignore)
    link.transmit(500_000, then=ignore)
    engine.run()
    assert link.bytes_sent == 1_000_000
    assert link.transfers == 2
    assert link.busy_time == pytest.approx(2 * link.service_time(500_000))


def test_zero_byte_transfer_rejected():
    engine = Engine()
    link = make_link(engine)
    with pytest.raises(ValueError):
        link.transmit(0, then=ignore)


class TestLinkStateBoard:
    def test_published_state_arrives_after_latency(self):
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=1e-3, quantum=1e-9)
        link = make_link(engine, board)
        link.transmit(250_000_000, then=ignore)  # 10 ms of service
        # Immediately: nothing published yet.
        assert board.published_queue_delay(link.spec.link_id) == 0.0
        engine.run(until=2e-3)  # past the 1 ms broadcast latency
        assert board.published_queue_delay(link.spec.link_id) > 0.0

    def test_small_changes_filtered_by_quantum(self):
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=0.0, quantum=1.0)
        link = make_link(engine, board)
        link.transmit(1_000, then=ignore)  # microseconds of service << 1 s quantum
        assert board.broadcast_count == 0

    def test_published_delay_decays_with_time(self):
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=0.0, quantum=1e-9)
        link = make_link(engine, board)
        link.transmit(25_000_000, then=ignore)
        engine.run(until=1e-4)
        early = board.published_queue_delay(link.spec.link_id)
        engine.run(until=9e-4)
        late = board.published_queue_delay(link.spec.link_id)
        assert late < early

    def test_broadcast_counts_measure_chattiness(self):
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=0.0, quantum=1e-9)
        link = make_link(engine, board)
        for _ in range(5):
            link.transmit(25_000_000, then=ignore)
        assert board.broadcast_count == 5

    def test_inflight_broadcast_coalesces_to_latest_value(self):
        """Regression: a queue change published while an earlier
        broadcast is still propagating must not be lost.  The delivery
        applies the *latest* value, so after the first broadcast lands
        remote GPUs see the full two-transfer backlog — not a stale
        snapshot that the second (still in-flight) broadcast would only
        correct half a millisecond later."""
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=1e-3, quantum=1e-9)
        link = make_link(engine, board)
        link.transmit(25_000_000, then=ignore)  # ~1 ms of service
        engine.run(until=0.5e-3)
        link.transmit(25_000_000, then=ignore)  # second broadcast while first in flight
        engine.run(until=1.1e-3)  # only the first delivery has landed
        published = board.published_queue_delay(link.spec.link_id)
        assert published == pytest.approx(link.queue_delay())
        assert published > 0.5 * link.service_time(25_000_000)

    def test_stale_delivery_cannot_roll_back_newer_value(self):
        """A slow first broadcast must not overwrite the state written
        by a newer broadcast that was delivered at the same instant."""
        engine = Engine()
        board = LinkStateBoard(engine, broadcast_latency=1e-3, quantum=1e-9)
        link = make_link(engine, board)
        link.transmit(25_000_000, then=ignore)
        engine.run(until=0.9e-3)
        link.transmit(250_000_000, then=ignore)  # much larger backlog, lands at 1.9 ms
        engine.run(until=2.5e-3)
        # Whatever order deliveries ran in, the surviving published
        # value reflects the latest local truth.
        assert board.published_queue_delay(
            link.spec.link_id
        ) == pytest.approx(link.queue_delay())
