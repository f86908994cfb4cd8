"""Credit-managed routing buffers (§4.1)."""

import pytest

from repro.sim import Engine, RoutingBuffer
from repro.sim.engine import SimulationError


class Sender:
    """Acquires ``count`` slots one after another, logging the time and
    outcome of each acquire in ``acquired``."""

    def __init__(self, engine, buffer, count, name=None, timeout=None):
        self.engine = engine
        self.buffer = buffer
        self.left = count
        self.name = name
        self.timeout = timeout
        self.acquired = []
        engine.schedule(0.0, self.step)

    def step(self):
        if self.left:
            self.left -= 1
            self.buffer.acquire(self.timeout, self.claimed)

    def claimed(self, ok):
        self.acquired.append((self.name, self.engine.now, ok))
        self.step()


class TestRoutingBuffer:
    def test_acquire_within_credits_is_instant(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=4, sync_latency=1.0)
        Sender(engine, buffer, 4)
        engine.run()
        assert engine.now == 0.0
        assert buffer.occupied == 4
        assert buffer.sync_count == 0

    def test_sync_paid_when_credits_run_out(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=2, sync_latency=1.0)
        # Release happens before the sender runs out, so the sync
        # refreshes credits successfully.
        engine.schedule(0.5, buffer.release)
        Sender(engine, buffer, 3)  # the third is out of credits -> sync
        engine.run()
        assert buffer.sync_count == 1
        assert engine.now == pytest.approx(1.0)

    def test_blocks_until_receiver_releases(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=1, sync_latency=0.1)
        sender = Sender(engine, buffer, 2)
        engine.schedule(5.0, buffer.release)
        engine.run()
        assert sender.acquired[-1][1] >= 5.0

    def test_release_without_acquire_fails(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=1, sync_latency=0.0)
        with pytest.raises(SimulationError):
            buffer.release()

    def test_two_senders_share_slots(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=2, sync_latency=0.1)
        senders = [Sender(engine, buffer, 1, name) for name in ("a", "b")]
        engine.run()
        acquired = [name for s in senders for name, _, ok in s.acquired if ok]
        assert sorted(acquired) == ["a", "b"]
        assert buffer.free == 0

    def test_invalid_parameters(self):
        engine = Engine()
        with pytest.raises(ValueError):
            RoutingBuffer(engine, slots=0, sync_latency=0.0)
        with pytest.raises(ValueError):
            RoutingBuffer(engine, slots=1, sync_latency=-1.0)
