"""Credit-managed routing buffers.

The :class:`RoutingBuffer` implements the paper's §4.1 buffer design:
each GPU keeps one circular packet buffer *per neighbouring GPU*, shared
by all data flows arriving from that neighbour.  To keep cross-GPU
synchronization off the critical path, the sending GPU works from a
*stale* credit count and only synchronizes with the receiver (paying a
round-trip latency) when its local view reaches zero slots.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

from repro.sim.engine import Engine, SimulationError


class RoutingBuffer:
    """A receiver-side circular packet buffer with lazy credit sync.

    The receiver owns ``slots`` packet slots.  The sender tracks a local
    credit count, decremented per push.  When credits run out, the
    sender *synchronizes*: it pays ``sync_latency`` and refreshes its
    credits from the receiver's true free-slot count (paper §4.1).  If
    the buffer is genuinely full, the sender blocks until the receiver
    releases a slot.

    A sender claims a slot with :meth:`try_acquire`; only when that
    fails (credits out) does it call :meth:`acquire`, which reports the
    outcome to a continuation.  The receiver calls :meth:`release` as
    packets are consumed or forwarded.
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
        self._waiters: deque[_Waiter] = deque()
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
            self._waiters.popleft().wake()

    def try_acquire(self) -> bool:
        """Claim one slot if local credits allow it, without blocking.

        This is the sender's fast path: while its (possibly stale)
        credit view is positive, :meth:`acquire` would claim the slot
        at once anyway.  The credit/occupancy bookkeeping is identical
        to :meth:`acquire`.
        """
        if self.dead or self._credits <= 0:
            return False
        self._credits -= 1
        self._occupied += 1
        return True

    def acquire(
        self, timeout: float | None, then: Callable[[bool], None]
    ) -> None:
        """Claim one slot, synchronizing / blocking as needed.

        Calls ``then(True)`` once a slot is claimed: at once while
        credits last, else after a credit sync and, if the buffer is
        full, a release.  With a ``timeout`` (seconds), gives up after
        waiting that long for a free slot and calls ``then(False)``
        instead — letting a sender re-route around a receiver that will
        never drain (e.g. a crashed GPU) rather than deadlocking on its
        credits.  A dead buffer refuses with ``then(False)`` at once.
        """
        if self.dead:
            then(False)
            return
        deadline = None if timeout is None else self._engine.now + timeout
        self._claim(deadline, then)

    def _claim(self, deadline: float | None, then: Callable[[bool], None]) -> None:
        if self._credits > 0:
            self._credits -= 1
            self._occupied += 1
            then(True)
            return
        engine = self._engine
        engine.schedule(
            self._sync_latency, engine._defer,
            partial(self._synced, deadline, then), None,
        )

    def _synced(
        self, deadline: float | None, then: Callable[[bool], None], _: None
    ) -> None:
        self.sync_count += 1
        if self.dead:
            then(False)
            return
        self._credits = self.free
        if self._credits > 0:
            self._claim(deadline, then)
            return
        engine = self._engine
        waiter = _Waiter(self, deadline, then)
        if deadline is not None:
            remaining = deadline - engine.now
            if remaining <= 0:
                then(False)
                return
            engine.schedule(remaining, engine._defer, waiter.settle, None)
        self._waiters.append(waiter)

    def _resumed(self, waiter: "_Waiter") -> None:
        if not waiter.woken:
            # Timed out before any release reached us.
            self._waiters.remove(waiter)
            waiter.then(False)
        elif self.dead:
            # Woken by mark_dead(), not a real slot release.
            waiter.then(False)
        else:
            # A release happened; refresh the credit view and retry
            # (another DMA engine may have raced us to the slot).
            self._credits = self.free
            self._claim(waiter.deadline, waiter.then)

    def release(self) -> None:
        """Free one slot (packet consumed or forwarded onward)."""
        if self._occupied <= 0:
            raise SimulationError("released a slot that was never acquired")
        self._occupied -= 1
        if self._waiters:
            self._waiters.popleft().wake()


class _Waiter:
    """One :meth:`RoutingBuffer.acquire` blocked on a full buffer.

    A release (or ``mark_dead``) pops the waiter, sets ``woken`` at once
    and re-enters through ``engine._defer``.  Without a deadline that
    hop resumes the acquire.  With one, the release and the deadline
    timer race: each takes a deferred hop to :meth:`settle`, the first
    to arrive settles the wait, and the resume is one more deferred hop.
    The resumed acquire then reads ``woken``, not which side settled,
    so a release that lands in the deadline's instant after the timer
    settled the wait still claims the slot.
    """

    __slots__ = ("buffer", "deadline", "then", "woken", "settled")

    def __init__(
        self,
        buffer: RoutingBuffer,
        deadline: float | None,
        then: Callable[[bool], None],
    ) -> None:
        self.buffer = buffer
        self.deadline = deadline
        self.then = then
        self.woken = False
        self.settled = False

    def wake(self) -> None:
        self.woken = True
        step = self.resume if self.deadline is None else self.settle
        self.buffer._engine._defer(step, None)

    def settle(self, _: None) -> None:
        if not self.settled:
            self.settled = True
            self.buffer._engine._defer(self.resume, None)

    def resume(self, _: None) -> None:
        self.buffer._resumed(self)
