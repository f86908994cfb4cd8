"""Simulation resources: FIFO stores and credit-managed routing buffers.

The :class:`RoutingBuffer` implements the paper's §4.1 buffer design:
each GPU keeps one circular packet buffer *per neighbouring GPU*, shared
by all data flows arriving from that neighbour.  To keep cross-GPU
synchronization off the critical path, the sending GPU works from a
*stale* credit count and only synchronizes with the receiver (paying a
round-trip latency) when its local view reaches zero slots.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.sim.engine import Engine, SimEvent, SimulationError


class Store:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an event that triggers when an
    item is available (immediately if the store is non-empty).
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        event = self._engine.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class RoutingBuffer:
    """A receiver-side circular packet buffer with lazy credit sync.

    The receiver owns ``slots`` packet slots.  The sender tracks a local
    credit count, decremented per push.  When credits run out, the
    sender *synchronizes*: it pays ``sync_latency`` and refreshes its
    credits from the receiver's true free-slot count (paper §4.1).  If
    the buffer is genuinely full, the sender blocks until the receiver
    releases a slot.

    A sender claims a slot with :meth:`try_acquire`; only when that
    fails (credits out) does it drive the :meth:`acquire` generator,
    with :meth:`Engine.drive` from a callback sender or ``yield from``
    inside a process.  The receiver calls :meth:`release` as packets
    are consumed or forwarded.
    """

    def __init__(self, engine: Engine, slots: int, sync_latency: float) -> None:
        if slots < 1:
            raise ValueError(f"a routing buffer needs >= 1 slot, got {slots}")
        if sync_latency < 0:
            raise ValueError("sync_latency must be non-negative")
        self._engine = engine
        self._slots = slots
        self._sync_latency = sync_latency
        self._occupied = 0
        self._credits = slots
        self._waiters: deque[SimEvent] = deque()
        #: Number of sender/receiver credit synchronizations performed.
        self.sync_count = 0
        #: Set when the owning GPU is declared dead: acquisition fails
        #: immediately and every blocked sender is woken so it can
        #: re-route instead of waiting out the full acquire timeout.
        self.dead = False

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def occupied(self) -> int:
        return self._occupied

    @property
    def free(self) -> int:
        return self._slots - self._occupied

    def mark_dead(self) -> None:
        """Declare the owning GPU dead; fail waiters and future acquires."""
        self.dead = True
        while self._waiters:
            self._waiters.popleft().succeed()

    def try_acquire(self) -> bool:
        """Claim one slot if local credits allow it, without blocking.

        This is the sender's fast path: while its (possibly stale)
        credit view is positive, :meth:`acquire` would yield nothing
        anyway, so the whole generator round-trip can be skipped.  The
        credit/occupancy bookkeeping is identical to :meth:`acquire`.
        """
        if self.dead or self._credits <= 0:
            return False
        self._credits -= 1
        self._occupied += 1
        return True

    def acquire(self, timeout: float | None = None) -> Generator[SimEvent, Any, bool]:
        """Claim one slot, synchronizing / blocking as needed.

        Returns ``True`` once a slot is claimed.  With a ``timeout``
        (seconds), gives up after waiting that long for a free slot and
        returns ``False`` instead — letting a sender re-route around a
        receiver that will never drain (e.g. a crashed GPU) rather than
        deadlocking on its credits.
        """
        if self.dead:
            return False
        deadline = None if timeout is None else self._engine.now + timeout
        while self._credits <= 0:
            yield self._engine.sleep(self._sync_latency)
            self.sync_count += 1
            if self.dead:
                return False
            self._credits = self.free
            if self._credits <= 0:
                waiter = self._engine.event()
                self._waiters.append(waiter)
                if deadline is None:
                    yield waiter
                else:
                    remaining = deadline - self._engine.now
                    if remaining <= 0:
                        self._waiters.remove(waiter)
                        return False
                    yield self._engine.any_of(
                        [waiter, self._engine.timeout(remaining)]
                    )
                    if not waiter.triggered:
                        # Timed out before any release reached us.
                        self._waiters.remove(waiter)
                        return False
                if self.dead:
                    # Woken by mark_dead(), not a real slot release.
                    return False
                # A release happened; refresh the credit view and retry
                # (another DMA engine may have raced us to the slot).
                self._credits = self.free
        self._credits -= 1
        self._occupied += 1
        return True

    def release(self) -> None:
        """Free one slot (packet consumed or forwarded onward)."""
        if self._occupied <= 0:
            raise SimulationError("released a slot that was never acquired")
        self._occupied -= 1
        if self._waiters:
            self._waiters.popleft().succeed()
