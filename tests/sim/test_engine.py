"""The discrete-event kernel: schedules, deferred steps, continuations.

A component that waits is a chain of callbacks: a sleep is
``engine.schedule(delay, engine._defer, step, None)`` and a wake-up by
another component is ``engine._defer(step, None)``.  :class:`Sleeper`
below is built that way, as every waiting piece of the simulator is.
"""

import pytest

from repro.sim import Engine, SimulationError


class Sleeper:
    """Sleeps through ``delays`` in turn, calling ``woke(index)`` after
    each, then sets ``value`` to ``result``; it starts one deferred hop
    after it is made."""

    def __init__(self, engine, delays, woke, result=None):
        self.engine = engine
        self.delays = list(delays)
        self.woke = woke
        self.result = result
        self.index = 0
        self.value = None
        engine._defer(self.step, None)

    def step(self, _):
        if self.index == len(self.delays):
            self.value = self.result
            return
        engine = self.engine
        engine.schedule(self.delays[self.index], engine._defer, self.resume, None)

    def resume(self, _):
        self.woke(self.index)
        self.index += 1
        self.step(None)


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    engine = Engine()
    engine.schedule(2.5, lambda: None)
    assert engine.run() == pytest.approx(2.5)


def test_events_fire_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(3.0, lambda: seen.append("late"))
    engine.schedule(1.0, lambda: seen.append("early"))
    engine.schedule(2.0, lambda: seen.append("middle"))
    engine.run()
    assert seen == ["early", "middle", "late"]


def test_same_time_events_fifo():
    engine = Engine()
    seen = []
    for index in range(5):
        engine.schedule(1.0, lambda i=index: seen.append(i))
    engine.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1.0, lambda: None)


def test_process_waits_on_timeouts():
    engine = Engine()
    trace = []
    sleeper = Sleeper(
        engine, [1.5, 0.5], lambda i: trace.append((i, engine.now)), "done"
    )
    engine.run()
    assert trace == [(0, 1.5), (1, 2.0)]
    assert sleeper.value == "done"


def test_timeout_value_passed_to_process():
    engine = Engine()
    received = []
    engine.schedule(1.0, engine._defer, received.append, "payload")
    engine.run()
    assert received == ["payload"]


def test_process_waiting_on_manual_event():
    """A parked continuation runs in the instant another component
    wakes it, one deferred hop later."""
    engine = Engine()
    log = []
    parked = [lambda value: log.append((engine.now, value))]
    engine.schedule(4.0, lambda: engine._defer(parked.pop(), 42))
    engine.run()
    assert log == [(4.0, 42)]


def test_run_until_stops_early():
    engine = Engine()
    hit = []
    engine.schedule(10.0, lambda: hit.append(True))
    assert engine.run(until=5.0) == 5.0
    assert not hit


def test_processes_interleave():
    engine = Engine()
    order = []
    Sleeper(engine, [1.0] * 3, lambda i: order.append(("a", engine.now)))
    Sleeper(engine, [1.5] * 3, lambda i: order.append(("b", engine.now)))
    engine.run()
    # At t=3.0 both fire; b's sleep was scheduled first (at t=1.5).
    assert order == [
        ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0), ("b", 4.5)
    ]


@pytest.mark.parametrize("fast", [True, False])
def test_succeed_and_zero_delay_schedules_interleave_fifo(fast):
    """Deferred steps are zero-delay schedules: the two kinds must
    interleave in strict registration (sequence) order, in both the
    deque fast path and the all-heap reference mode."""
    engine = Engine(fast=fast)
    seen = []
    engine.schedule(0.0, lambda: seen.append("s1"))
    engine._defer(seen.append, "d1")
    engine.schedule(0.0, lambda: seen.append("s2"))
    engine._defer(seen.append, "d2")
    engine.schedule(0.0, lambda: seen.append("s3"))
    engine.run()
    assert seen == ["s1", "d1", "s2", "d2", "s3"]


@pytest.mark.parametrize("fast", [True, False])
def test_same_instant_work_spawned_during_dispatch_stays_fifo(fast):
    """Callbacks that schedule more zero-delay work run it after
    everything already queued for this instant — classic FIFO, not
    LIFO — and time does not advance until the instant drains."""
    engine = Engine(fast=fast)
    seen = []

    def first():
        seen.append(("first", engine.now))
        engine.schedule(0.0, lambda: seen.append(("nested", engine.now)))

    engine.schedule(1.0, first)
    engine.schedule(1.0, lambda: seen.append(("second", engine.now)))
    engine.schedule(2.0, lambda: seen.append(("later", engine.now)))
    engine.run()
    assert seen == [
        ("first", 1.0), ("second", 1.0), ("nested", 1.0), ("later", 2.0)
    ]


def test_fast_and_reference_mode_execute_identically():
    """A busy mixed workload must produce the same trace in both modes."""
    def trace_for(fast):
        engine = Engine(fast=fast)
        trace = []

        def woke(name, index):
            trace.append((name, index, engine.now))
            if index % 2 == 0:
                engine.schedule(0.0, lambda: trace.append((name, index, "echo")))

        Sleeper(engine, [0.5] * 4, lambda i: woke("a", i))
        Sleeper(engine, [1.0] * 3, lambda i: woke("b", i))
        engine.schedule(1.0, engine._defer, trace.append, ("gate", "open"))
        engine.run()
        return trace

    assert trace_for(True) == trace_for(False)


def test_engine_stats_count_dispatch_paths():
    engine = Engine()
    engine.schedule(0.0, lambda: None)
    engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine.stats == {
        "events_scheduled": 2,
        "ready_dispatches": 1,
        "heap_dispatches": 1,
    }


class TestEvery:
    """Periodic housekeeping chains that stop with the real workload."""

    def test_ticks_while_real_work_remains(self):
        engine = Engine()
        ticks = []
        engine.every(1.0, lambda: ticks.append(engine.now))
        engine.schedule(3.5, lambda: None)
        # The chain overruns the last real event by at most one tick
        # (the reschedule decision at 3.0 still saw the 3.5 work).
        assert engine.run() == pytest.approx(4.0)
        assert ticks == [pytest.approx(t) for t in (1.0, 2.0, 3.0, 4.0)]

    def test_chain_does_not_keep_engine_alive(self):
        engine = Engine()
        engine.every(1.0, lambda: None)
        # No real work at all: the first tick sees only itself pending.
        assert engine.run() == pytest.approx(1.0)

    def test_two_chains_do_not_keep_each_other_alive(self):
        engine = Engine()
        counts = [0, 0]

        def bump(index):
            counts[index] += 1

        engine.every(1.0, lambda: bump(0))
        engine.every(1.0, lambda: bump(1))
        engine.schedule(2.5, lambda: None)
        # Without housekeeping accounting each chain would read the
        # other as pending work and the run would never terminate.
        assert engine.run() == pytest.approx(3.0)
        assert counts == [3, 3]

    def test_rejects_non_positive_interval(self):
        with pytest.raises(SimulationError):
            Engine().every(0.0, lambda: None)
        with pytest.raises(SimulationError):
            Engine().every(-1.0, lambda: None)

    def test_callbacks_do_not_retime_real_events(self):
        seen = []
        engine = Engine()
        engine.schedule(1.0, lambda: seen.append(("work", engine.now)))
        engine.every(0.4, lambda: None)
        engine.schedule(2.0, lambda: seen.append(("late", engine.now)))
        engine.run()
        assert seen == [
            ("work", pytest.approx(1.0)),
            ("late", pytest.approx(2.0)),
        ]
