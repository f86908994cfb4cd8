"""Retry/backoff bounds and credit-timeout recovery plumbing."""

import pytest

from repro.sim import Engine, RoutingBuffer
from repro.sim.recovery import RetryPolicy


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "base,backoff,cap,attempts",
        [
            (100e-6, 2.0, 5e-3, 4),
            (50e-6, 1.5, 1e-3, 8),
            (0.0, 3.0, 1e-2, 3),
            (1e-3, 1.0, 1e-3, 16),
            (2e-4, 4.0, 2e-4, 2),
        ],
    )
    def test_delays_bounded_and_monotone(self, base, backoff, cap, attempts):
        """Property: every backoff delay is capped, non-decreasing, and
        the whole retry budget sums to the documented bound."""
        policy = RetryPolicy(
            max_attempts=attempts, base_delay=base, backoff=backoff,
            max_delay=cap,
        )
        delays = [policy.retry_delay(i) for i in range(attempts - 1)]
        assert all(0.0 <= delay <= cap for delay in delays)
        assert delays == sorted(delays)
        assert policy.total_delay_bound() == pytest.approx(sum(delays))
        assert policy.total_delay_bound() <= cap * (attempts - 1) * (1 + 1e-9)

    def test_default_budget_is_small(self):
        # The whole retry budget must stay well under a typical shuffle
        # so recovery never dominates a run that mostly succeeds.
        assert RetryPolicy().total_delay_bound() < 10e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)


class TestAcquireTimeout:
    """RoutingBuffer.acquire(timeout, then) — the crashed-receiver escape."""

    @staticmethod
    def start(engine, buffer, timeout, outcome, name=None, delay=0.0):
        """Start one acquire ``delay`` seconds from now; log its result."""

        def claimed(ok):
            outcome.append((engine.now, ok) if name is None else (name, engine.now, ok))

        def step():
            buffer.acquire(timeout, claimed)

        engine.schedule(delay, engine.schedule, 0.0, step)

    def test_timeout_returns_false_at_deadline(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=1, sync_latency=0.0)
        held, outcome = [], []
        self.start(engine, buffer, None, held)
        self.start(engine, buffer, 0.5, outcome)
        engine.run()
        assert held == [(0.0, True)]
        assert outcome == [(0.5, False)]

    def test_release_before_deadline_returns_true(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=1, sync_latency=0.0)
        held, outcome = [], []
        self.start(engine, buffer, None, held)
        self.start(engine, buffer, 0.5, outcome)
        engine.schedule(0.2, buffer.release)
        engine.run()
        assert outcome == [(0.2, True)]

    def test_timed_out_waiter_does_not_leak_the_slot(self):
        """A release after the timeout must not wake the dead waiter —
        the slot has to go to the next live acquirer."""
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=1, sync_latency=0.0)
        held, outcome = [], []
        self.start(engine, buffer, None, held)
        self.start(engine, buffer, 0.1, outcome, "impatient")
        self.start(engine, buffer, 5.0, outcome, "late", delay=2.0)
        engine.schedule(1.0, buffer.release)
        engine.run()
        assert outcome == [
            ("impatient", 0.1, False),
            ("late", 2.0, True),
        ]

    def test_immediate_acquire_ignores_timeout(self):
        engine = Engine()
        buffer = RoutingBuffer(engine, slots=2, sync_latency=0.0)
        outcome = []
        self.start(engine, buffer, 1e-9, outcome)
        engine.run()
        assert outcome == [(0.0, True)]
