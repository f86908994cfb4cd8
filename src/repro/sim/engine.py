"""A compact callback-based discrete-event simulation kernel.

Everything that happens in a simulation is a callback on one event
loop: :meth:`Engine.schedule` runs ``callback(*args)`` after a delay,
and a component that waits (for a pacing delay, a credit, a finished
transfer) is a small state machine whose next step is the callback.
Only the features the shuffle simulator needs are implemented, which
keeps the kernel small enough to test exhaustively.

Example::

    engine = Engine()
    trace = []

    def step():
        trace.append(engine.now)
        if len(trace) < 2:
            engine.schedule(2.0, step)

    engine.schedule(0.0, step)
    engine.run()
    assert trace == [0.0, 2.0]

Fast path
---------

By default the engine runs with ``fast=True``: work scheduled for the
*current* instant (zero-delay schedules) goes onto a FIFO ready deque
instead of round-tripping through the time heap.
Ready entries and heap entries share one global sequence counter, and
the run loop always dispatches the lowest sequence number among the
work runnable *now* — so the execution order is provably identical to
the reference mode (``fast=False``), where everything goes through the
heap.  ``tests/sim/test_fastpath_equivalence.py`` holds the engine to
that bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Engine:
    """The event loop: a time-ordered heap plus a same-instant deque.

    Args:
        fast: When True (the default) same-instant work is dispatched
            from a FIFO deque instead of the heap.  ``fast=False`` is
            the reference mode every fast-path change is checked
            against; both modes execute callbacks in exactly the same
            order.
    """

    def __init__(self, fast: bool = True) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable, Any]] = []
        self._ready: deque[tuple[int, Callable, Any]] = deque()
        #: Sequence numbers of cancelled timers still on the heap.
        self._cancelled: set[int] = set()
        self._sequence = itertools.count()
        self._running = False
        self._fast = fast
        self._housekeeping = 0
        self._events_scheduled = 0
        self._ready_dispatches = 0
        self._heap_dispatches = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def fast(self) -> bool:
        return self._fast

    @property
    def pending(self) -> int:
        """Number of scheduled callbacks not yet executed.

        Periodic observers (e.g. the link-timeline probe) use this to
        stop rescheduling themselves once they are the only thing left
        on the heap, so sampling never keeps a finished simulation
        alive.  Cancelled timers do not count.
        """
        return len(self._heap) + len(self._ready) - len(self._cancelled)

    @property
    def stats(self) -> dict[str, int]:
        """Kernel self-time counters (how hard the event loop worked).

        ``ready_dispatches`` / ``heap_dispatches`` split executed
        callbacks by path; ``events_scheduled`` counts every schedule.
        """
        return {
            "events_scheduled": self._events_scheduled,
            "ready_dispatches": self._ready_dispatches,
            "heap_dispatches": self._heap_dispatches,
        }

    def schedule(self, delay: float, callback: Callable, *args: Any) -> int:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Returns the entry's sequence number, the token :meth:`cancel`
        takes.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._events_scheduled += 1
        sequence = next(self._sequence)
        if delay == 0.0 and self._fast:
            self._ready.append((sequence, callback, args))
        else:
            heapq.heappush(self._heap, (self._now + delay, sequence, callback, args))
        return sequence

    def cancel(self, token: int) -> None:
        """Drop a timer that has not fired yet, by its :meth:`schedule` token.

        The timer must have been scheduled with a positive delay.  Its
        heap entry stays as a tombstone that :meth:`run` discards
        without dispatching it or advancing the clock to it.
        """
        self._cancelled.add(token)

    def every(self, interval: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` every ``interval`` seconds while real work remains.

        This is the sanctioned way to attach periodic *housekeeping*
        (telemetry pumps, timeline probes) to a run.  Each registered
        chain counts itself in ``_housekeeping``; a tick reschedules
        only while ``pending`` exceeds the number of outstanding
        housekeeping ticks.  A raw ``if engine.pending: reschedule``
        probe cannot tell another probe from real work, so two such
        probes would keep each other — and the run — alive forever;
        chains registered here all terminate once only housekeeping
        remains on the clock.

        Callbacks must be read-only with respect to simulation state:
        ticks consume sequence numbers but never reorder or retime real
        events, so results are unchanged by observation.
        """
        if interval <= 0:
            raise SimulationError(f"every() interval must be positive ({interval})")

        def tick() -> None:
            self._housekeeping -= 1
            callback()
            if self.pending > self._housekeeping:
                self._housekeeping += 1
                self.schedule(interval, tick)

        self._housekeeping += 1
        self.schedule(interval, tick)

    def run(self, until: float | None = None) -> float:
        """Process events until both queues drain (or ``until`` is hit).

        Returns the simulation time at which the run stopped.

        Dispatch order: among everything runnable at the current
        instant — the ready deque plus heap entries whose time equals
        ``now`` — the lowest sequence number runs first.  Time only
        advances once the ready deque is empty, so the order matches
        the all-heap reference mode exactly.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        ready = self._ready
        heap = self._heap
        cancelled = self._cancelled
        try:
            while True:
                if ready:
                    if heap and heap[0][0] <= self._now and heap[0][1] < ready[0][0]:
                        time, sequence, callback, args = heapq.heappop(heap)
                        if cancelled and sequence in cancelled:
                            cancelled.remove(sequence)
                            continue
                        self._now = time
                        self._heap_dispatches += 1
                    else:
                        _, callback, args = ready.popleft()
                        self._ready_dispatches += 1
                    callback(*args)
                    continue
                if not heap:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    self._now = until
                    return self._now
                _, sequence, callback, args = heapq.heappop(heap)
                if cancelled and sequence in cancelled:
                    cancelled.remove(sequence)
                    continue
                if time < self._now - 1e-12:
                    raise SimulationError("event heap went backwards in time")
                self._now = time
                self._heap_dispatches += 1
                callback(*args)
            if until is not None:
                self._now = max(self._now, until)
            return self._now
        finally:
            self._running = False
