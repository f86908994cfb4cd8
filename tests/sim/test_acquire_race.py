"""The release/deadline race of a timed ``RoutingBuffer.acquire``.

A sender waiting for a slot with a deadline is woken by whichever lands
first: a release (or ``mark_dead``) or the deadline timer.  What decides
the outcome is whether a release reached the waiter by the time it
resumes, not which of the two wake-ups ran first: a release landing in
the deadline's own instant, after the timer popped, still claims the
slot.  Each case also pins the kernel counters, so the number of
same-instant steps on either side of the race cannot drift.

Every case holds the buffer's one slot, then starts a waiter with a
1 s timeout at t=0.  It syncs credits at 0.25 s, finds the buffer full
and waits with its deadline at exactly 1.0 s.
"""

import pytest

from repro.sim import Engine, RoutingBuffer


def start_acquire(engine, buffer, timeout, outcomes):
    """Start one ``acquire`` now; its result lands in ``outcomes`` as
    ``(time, acquired)``."""
    buffer.acquire(timeout, lambda ok: outcomes.append((engine.now, ok)))


def kernel_counters(engine):
    stats = engine.stats
    return tuple(
        stats[key]
        for key in ("events_scheduled", "ready_dispatches", "heap_dispatches")
    )


def held_buffer_with_waiter(fast=True):
    engine = Engine(fast=fast)
    buffer = RoutingBuffer(engine, slots=1, sync_latency=0.25)
    assert buffer.try_acquire()
    outcomes = []
    start_acquire(engine, buffer, 1.0, outcomes)
    return engine, buffer, outcomes


@pytest.mark.parametrize("fast", [True, False])
def test_release_before_the_deadline_claims_the_slot(fast):
    engine, buffer, outcomes = held_buffer_with_waiter(fast)
    engine.schedule(0.5, buffer.release)
    # The release cancels the deadline timer: nothing runs the clock to 1.0.
    assert engine.run() == 0.5
    assert outcomes == [(0.5, True)]
    assert buffer.occupied == 1
    assert not buffer._waiters
    if fast:
        assert kernel_counters(engine) == (4, 1, 2)


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("hop", ["timer-popped", "deadline-settled"])
def test_release_in_the_deadline_instant_still_claims_the_slot(fast, hop):
    """The deadline timer has already popped (and, in the second case,
    already settled the wait) when the release lands at 1.0 s; the
    waiter resumes after the release, so it holds the slot."""
    engine, buffer, outcomes = held_buffer_with_waiter(fast)
    if hop == "timer-popped":
        # Scheduled after the timer was armed: pops right after it.
        engine.schedule(0.5, engine.schedule, 0.5, buffer.release)
    else:
        # Queued behind the step the fired deadline timer takes.
        engine.schedule(0.5, engine.schedule, 0.5, engine.schedule, 0.0,
                        buffer.release)
    engine.run()
    assert outcomes == [(1.0, True)]
    assert buffer.occupied == 1
    assert not buffer._waiters
    if fast:
        expected = (6, 2, 4) if hop == "timer-popped" else (7, 3, 4)
        assert kernel_counters(engine) == expected


@pytest.mark.parametrize("fast", [True, False])
def test_mark_dead_fails_a_timed_wait_before_its_deadline(fast):
    engine, buffer, outcomes = held_buffer_with_waiter(fast)
    engine.schedule(0.5, buffer.mark_dead)
    assert engine.run() == 0.5
    assert outcomes == [(0.5, False)]
    assert not buffer._waiters
    if fast:
        assert kernel_counters(engine) == (4, 1, 2)


@pytest.mark.parametrize("fast", [True, False])
def test_timed_out_waiter_leaves_no_entry(fast):
    engine, buffer, outcomes = held_buffer_with_waiter(fast)
    # A release after the deadline finds no waiter to hand the slot to.
    engine.schedule(2.0, buffer.release)
    engine.run()
    assert outcomes == [(1.0, False)]
    assert not buffer._waiters
    assert buffer.occupied == 0
    if fast:
        assert kernel_counters(engine) == (5, 2, 3)
