"""A compact process-based discrete-event simulation kernel.

The kernel follows the SimPy model: *processes* are Python generators
that ``yield`` events; the engine resumes a process when the event it
waits on triggers.  Only the features the shuffle simulator needs are
implemented, which keeps the kernel small enough to test exhaustively.
Hot per-packet code skips the process machinery and runs as plain
callbacks on the same queues; :meth:`Engine.drive` steps a generator
inline from such a callback, and is also what runs every process.

Example::

    engine = Engine()

    def worker():
        yield engine.timeout(2.0)
        return "done"

    process = engine.process(worker())
    engine.run()
    assert engine.now == 2.0 and process.value == "done"

Fast path
---------

By default the engine runs with ``fast=True``: work scheduled for the
*current* instant (triggered-event callbacks and zero-delay schedules)
goes onto a FIFO ready deque instead of round-tripping through the time
heap.  Ready entries and heap entries share one global sequence
counter, and the run loop always dispatches the lowest sequence number
among the work runnable *now* — so the execution order is provably
identical to the reference mode (``fast=False``), where everything goes
through the heap.  ``tests/sim/test_fastpath_equivalence.py`` holds the
engine to that bit-for-bit.

:meth:`Engine.sleep` additionally recycles timeout events through a
pool.  It is opt-in precisely because a pooled event is reset the
moment the waiting process resumes: use it only for fire-and-forget
pacing waits where the event object is never retained (see
``docs/performance.md``).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable

ProcessGenerator = Generator["SimEvent", Any, Any]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class SimEvent:
    """A one-shot event that processes can wait on.

    An event starts *untriggered*; calling :meth:`succeed` stores its
    value and schedules its callbacks at the current simulation time.
    """

    __slots__ = ("_engine", "_callbacks", "_triggered", "_poolable", "value")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._callbacks: list[Callable[[SimEvent], None]] = []
        self._triggered = False
        self._poolable = False
        self.value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    def succeed(self, value: Any = None) -> "SimEvent":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        defer = self._engine._defer
        for callback in callbacks:
            defer(callback, self)
        return self

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        if self._poolable and (self._triggered or self._callbacks):
            # A second consumer means the event's identity outlives the
            # first resume, so it must never be reset into the pool.
            self._poolable = False
        if self._triggered:
            self._engine._defer(callback, self)
        else:
            self._callbacks.append(callback)


class Process(SimEvent):
    """A running generator; also an event that triggers when it returns.

    A process is :meth:`Engine.drive` with :meth:`succeed` as the
    return continuation, its first step deferred to the current instant.
    """

    __slots__ = ("name",)

    def __init__(
        self, engine: "Engine", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(engine)
        self.name = name or getattr(generator, "__name__", "process")
        engine._defer(partial(engine.drive, generator, self.succeed), None)


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
        self._sequence = itertools.count()
        self._running = False
        self._fast = fast
        self._event_pool: list[SimEvent] = []
        self._housekeeping = 0
        self._events_scheduled = 0
        self._ready_dispatches = 0
        self._heap_dispatches = 0
        self._timeout_pool_hits = 0

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
        alive.
        """
        return len(self._heap) + len(self._ready)

    @property
    def stats(self) -> dict[str, int]:
        """Kernel self-time counters (how hard the event loop worked).

        ``ready_dispatches`` / ``heap_dispatches`` split executed
        callbacks by path; ``events_scheduled`` counts every schedule
        call; ``timeout_pool_hits`` counts :meth:`sleep` events served
        from the recycle pool instead of freshly allocated.
        """
        return {
            "events_scheduled": self._events_scheduled,
            "ready_dispatches": self._ready_dispatches,
            "heap_dispatches": self._heap_dispatches,
            "timeout_pool_hits": self._timeout_pool_hits,
        }

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._events_scheduled += 1
        if delay == 0.0 and self._fast:
            self._ready.append((next(self._sequence), callback, args))
        else:
            heapq.heappush(
                self._heap, (self._now + delay, next(self._sequence), callback, args)
            )

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

    def _defer(self, callback: Callable, event: SimEvent | None) -> None:
        """Run ``callback(event)`` at the current instant.

        This is the triggered-event path of :meth:`SimEvent.succeed` /
        :meth:`SimEvent.add_callback`: semantically a zero-delay
        schedule, ordered FIFO (by the shared sequence counter) with
        everything else runnable now.
        """
        self._events_scheduled += 1
        if self._fast:
            self._ready.append((next(self._sequence), callback, (event,)))
        else:
            heapq.heappush(
                self._heap, (self._now, next(self._sequence), callback, (event,))
            )

    def _release(self, event: SimEvent) -> None:
        """Reset a poolable, consumed :meth:`sleep` event for reuse."""
        if event._triggered and not event._callbacks:
            event._triggered = False
            event.value = None
            self._event_pool.append(event)

    def event(self) -> SimEvent:
        """Create an untriggered event."""
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> SimEvent:
        """An event that triggers after ``delay`` seconds."""
        event = SimEvent(self)
        self.schedule(delay, event.succeed, value)
        return event

    def sleep(self, delay: float, value: Any = None) -> SimEvent:
        """A recyclable timeout for fire-and-forget pacing waits.

        Behaves like :meth:`timeout`, but the event object is returned
        to a pool (and reset) as soon as the single process waiting on
        it resumes.  Callers must not retain the event past the yield —
        in particular, never hand a sleep event to :meth:`any_of` /
        :meth:`all_of` result inspection.  Adding a second callback
        demotes the event to a normal one-shot, so misuse degrades to
        correct-but-unpooled behaviour.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            self._timeout_pool_hits += 1
        else:
            event = SimEvent(self)
            event._poolable = True
        self.schedule(delay, event.succeed, value)
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process driving ``generator``."""
        return Process(self, generator, name=name)

    def drive(
        self,
        generator: ProcessGenerator,
        on_return: Callable[[Any], None],
        completed: SimEvent | None = None,
    ) -> None:
        """Step ``generator`` now, and again each time what it waits on fires.

        This is the engine's one generator-stepping routine: the value of
        ``completed`` (the event that woke the generator) is sent in; a
        yielded event gets this routine as its callback, and a return
        calls ``on_return(value)`` at once.  A :class:`Process` is this
        routine with :meth:`SimEvent.succeed` as ``on_return``; a DMA
        engine short of routing-buffer credits drives
        :meth:`~repro.sim.resources.RoutingBuffer.acquire` with it
        inline, as ``yield from`` would.  A consumed :meth:`sleep` event
        is recycled after the step, return continuation included.
        """
        try:
            target = generator.send(completed.value if completed is not None else None)
            waiting = True
        except StopIteration as stop:
            target, waiting = stop.value, False
        if not waiting:
            on_return(target)
        elif isinstance(target, SimEvent):
            target.add_callback(partial(self.drive, generator, on_return))
        else:
            raise SimulationError(
                f"generator {getattr(generator, '__name__', generator)!r} "
                f"yielded {target!r}, expected a SimEvent"
            )
        if completed is not None and completed._poolable:
            self._release(completed)

    def any_of(self, events: Iterable[SimEvent]) -> SimEvent:
        """An event that triggers when the *first* of ``events`` does.

        The triggering event itself is the value, so a waiter can tell
        which of several raced outcomes (e.g. a transfer completion vs
        a timeout) fired first.  Later completions are ignored.
        """
        events = list(events)
        if not events:
            raise SimulationError("any_of needs at least one event")
        done = self.event()

        def on_complete(event: SimEvent) -> None:
            if not done.triggered:
                done.succeed(event)

        for event in events:
            event.add_callback(on_complete)
        return done

    def all_of(self, events: Iterable[SimEvent]) -> SimEvent:
        """An event that triggers once every event in ``events`` has."""
        events = list(events)
        done = self.event()
        remaining = len(events)
        if remaining == 0:
            done.succeed([])
            return done
        results: list[Any] = [None] * remaining
        pending = [remaining]

        def on_complete(index: int, event: SimEvent) -> None:
            results[index] = event.value
            pending[0] -= 1
            if pending[0] == 0:
                done.succeed(results)

        for index, event in enumerate(events):
            event.add_callback(lambda ev, i=index: on_complete(i, ev))
        return done

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
        try:
            while True:
                if ready:
                    if heap and heap[0][0] <= self._now and heap[0][1] < ready[0][0]:
                        time, _, callback, args = heapq.heappop(heap)
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
                _, _, callback, args = heapq.heappop(heap)
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
