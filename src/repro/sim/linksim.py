"""Time-domain behaviour of physical links.

Each :class:`LinkChannel` wraps one directed :class:`LinkSpec` as a FIFO
server: a transfer's service time is ``latency + bytes / bandwidth``,
and transfers queue when the link is busy.  The current queueing delay
is exactly the ``Q_i`` of the paper's adaptive routing metric (Eq. 4).

:class:`LinkStateBoard` models how GPUs learn about remote queueing
delays: a GPU always knows its own outgoing links precisely, while
changes on other links are *broadcast* and become visible only after a
propagation delay — and only when the change is significant, mirroring
the paper's "broadcast the change in the queuing delay" design.

Fault semantics (`repro.faults`): a channel can be *degraded* (its
effective bandwidth scaled down), taken *down* (transfers in flight or
newly submitted are lost and the completion reports ``False``)
and brought back up.  Health changes are visible immediately to the
owning GPU through :meth:`LinkChannel.queue_delay` and to everybody
else through :meth:`LinkStateBoard.publish_fault`, which rides the same
propagation-delay broadcast path as queue-delay changes.

Instrumentation: a channel reports every queue change and every booked
transfer to its :attr:`LinkChannel.recorders`, the fabric's tuple of
:class:`~repro.sim.recorder.Recorder` objects (``record_queue`` and
``record_transfer``).  :class:`LinkLanes` is the recorder behind
per-link trace lanes.  Totals the channel and the board already keep
(bytes, transfers, broadcasts) are exported to metrics once per run,
when the fabric reports its engine drained
(:meth:`~repro.sim.recorder.Recorder.record_drained`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim.engine import Engine
from repro.sim.recorder import Recorder
from repro.topology.links import LinkSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracer


@dataclass
class LinkChannel:
    """FIFO service model for one directed link."""

    engine: Engine
    spec: LinkSpec
    board: "LinkStateBoard | None" = None
    #: Link-activity recorders, told of every queue change and every
    #: booked transfer (see the module docstring); empty = off.
    recorders: tuple = ()
    _free_at: float = 0.0
    #: Accumulated busy (service) time, for utilization accounting.
    busy_time: float = 0.0
    bytes_sent: int = 0
    transfers: int = 0
    #: Service seconds of packets *routed over* this link but not yet
    #: submitted for transmission — the backlog sitting in sender
    #: queues.  Included in the queue delay so the adaptive metric sees
    #: congestion building up before the wire does.
    committed_load: float = 0.0
    #: Fault state (driven by :class:`repro.faults.FaultInjector`).
    #: ``bandwidth_scale`` < 1 models a degraded link; ``up=False`` a
    #: blackout or permanent failure; ``fault_penalty`` is the extra
    #: queue-delay seconds the owning GPU (and, after a broadcast, every
    #: other GPU) perceives while the fault lasts.
    bandwidth_scale: float = 1.0
    up: bool = True
    fault_penalty: float = 0.0
    #: Incremented on every down transition; a transfer that started in
    #: an earlier outage epoch than it completes in was lost mid-flight.
    _outage_epoch: int = 0
    #: Transfers lost to a down link (submitted or in flight).
    transfers_lost: int = 0
    #: Corruption-fault hook (a :class:`~repro.sim.integrity.
    #: PacketTamperer`), installed by the fault injector for the
    #: event's duration; ``None`` = the wire is honest.  Applied by the
    #: sending GPU after a successful transmit, and only when the run's
    #: integrity layer is active — healthy runs never look at it.
    tamper: "object | None" = None
    #: Per-query bandwidth arbitration (:class:`LinkArbiter`), installed
    #: by the serving layer; ``None`` = the legacy virtual-FIFO booking,
    #: byte-identical to every pre-serve run.  Untagged transfers bypass
    #: the arbiter even when one is installed.
    arbiter: "LinkArbiter | None" = None

    def service_time(self, nbytes: float) -> float:
        return self.spec.latency + nbytes / (self.spec.bandwidth * self.bandwidth_scale)

    def commit(self, nbytes: float) -> float:
        """Reserve load for a packet routed over this link.

        Returns the service seconds reserved; the caller hands exactly
        that amount back to :meth:`fulfill`, so a bandwidth change
        between the two (a degrade that starts or ends while the packet
        waits) can never leave phantom load behind.
        """
        service = self.service_time(nbytes)
        self.committed_load += service
        if self.board is not None:
            self.board.publish(self)
        for recorder in self.recorders:
            recorder.record_queue(self)
        return service

    def fulfill(self, service: float) -> None:
        """Clear a reservation of ``service`` seconds (as :meth:`commit`
        returned it) when the packet is submitted to the wire."""
        remaining = self.committed_load - service
        self.committed_load = remaining if remaining > 0.0 else 0.0
        for recorder in self.recorders:
            recorder.record_queue(self)

    def queue_delay(self) -> float:
        """Time a packet routed over this link *now* would wait.

        Combines the wire-level FIFO backlog with load already committed
        by earlier routing decisions (the ``Q_i`` of Eq. 4), plus the
        fault penalty of a degraded or down link — the owning GPU knows
        its own ports' health immediately.

        The clamp is ``max(0.0, free_at - now)`` as a conditional: the
        same value, signed zeros included, without a builtin call on a
        path every route evaluation and timeline probe tick takes.
        """
        backlog = self._free_at - self.engine.now
        backlog = (backlog if backlog > 0.0 else 0.0) + self.committed_load
        if self.arbiter is not None:
            backlog += self.arbiter.queued_service
        return backlog + self.fault_penalty

    def take_down(self) -> bool:
        """Start an outage: lose in-flight transfers, refuse new ones.

        Returns whether the link was up, i.e. whether this call started
        an outage.
        """
        if not self.up:
            return False
        self.up = False
        self._outage_epoch += 1
        return True

    def bring_up(self) -> bool:
        """End an outage; whatever queued during it was lost, not saved.

        Returns whether the link was down, i.e. whether this call ended
        an outage.
        """
        was_down = not self.up
        self.up = True
        self._free_at = min(self._free_at, self.engine.now)
        return was_down

    def transmit(
        self,
        nbytes: int,
        tag: "object | None" = None,
        *,
        then: "Callable[[bool], None]",
    ) -> None:
        """Enqueue a transfer and report its outcome at completion.

        The outcome is ``True`` when the bytes crossed the wire and
        ``False`` when the link was down at submission or failed before
        the transfer completed (the packet is lost).  It is passed to
        ``then(outcome)``, called straight from the completion callback
        (one step later on an arbitrated link, see :meth:`LinkArbiter.submit`).

        ``tag`` identifies the submitting query to the per-link
        :class:`LinkArbiter` when one is installed; untagged transfers
        (or an arbiter-free link) take the legacy immediate-booking
        path.
        """
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        if self.arbiter is not None and tag is not None:
            self.arbiter.submit(nbytes, tag, then)
        elif not self.up:
            # Dead port: the DMA engine notices after the launch latency.
            self.transfers_lost += 1
            self.engine.schedule(self.spec.latency, then, False)
        else:
            self._book(nbytes, self.service_time(nbytes), then)

    def _book(
        self, nbytes: int, service: float, then: "Callable[[bool], None]"
    ) -> None:
        """Book one transfer on the wire's virtual FIFO.

        Shared by the legacy immediate path (booked at submission) and
        the arbiter path (booked when the request wins arbitration); the
        accounting and completion scheduling are identical in both.
        """
        now = self.engine.now
        free_at = self._free_at
        start = free_at if free_at > now else now
        completion = start + service
        self._free_at = completion
        self.busy_time += service
        self.bytes_sent += nbytes
        self.transfers += 1
        if self.board is not None:
            self.board.publish(self)
        for recorder in self.recorders:
            recorder.record_transfer(self, now, start, completion, nbytes)
        self.engine.schedule(
            completion - now, self._finish_transfer, then, self._outage_epoch
        )

    def _finish_transfer(self, then: "Callable[[bool], None]", epoch: int) -> None:
        delivered = self.up and epoch == self._outage_epoch
        if not delivered:
            self.transfers_lost += 1
        then(delivered)


class LinkLanes(Recorder):
    """Recorder that writes each link transfer as a span on its link's lane.

    Every booked transfer becomes one simulated-clock ``"transfer"``
    span from wire start to wire end, on a track named after the link
    and tagged ``category="link"``, so a Chrome-trace export shows one
    timeline lane per link.  The span store's record cap bounds memory.
    """

    def __init__(self, spans: "SpanTracer") -> None:
        self.spans = spans
        #: link id -> lane label, rendered once per link.
        self._labels: dict[int, str] = {}

    def record_transfer(
        self, channel: LinkChannel, submit: float, start: float, end: float,
        nbytes: int,
    ) -> None:
        spec = channel.spec
        label = self._labels.get(spec.link_id)
        if label is None:
            label = self._labels[spec.link_id] = str(spec)
        self.spans.add_span(
            "transfer", start, end, track=label, category="link",
            bytes=nbytes, detail="",
        )


ARBITRATION_MODES = ("fair", "priority")


@dataclass
class LinkArbiter:
    """Per-packet bandwidth arbitration between tagged (per-query) flows.

    Without an arbiter a link is a virtual FIFO: every submitted
    transfer is booked immediately, so one query's burst occupies the
    wire for its whole duration and a later query waits behind all of
    it.  The arbiter instead holds tagged requests in per-tag queues
    and re-arbitrates at every packet boundary:

    * ``fair`` — round-robin over the tags that have waiting requests,
      so N concurrent queries each get ~1/N of the wire regardless of
      how deep any one query's backlog is;
    * ``priority`` — highest :attr:`priorities` value first (default 0),
      round-robin among equals, so a latency-critical tenant preempts
      batch traffic at packet granularity.

    A single-tag workload is timing-identical to the legacy path: with
    no competing tag, each request books at exactly the completion
    boundary of its predecessor, which yields the same start times as
    immediate virtual-FIFO booking.  Waiting requests are visible to
    the routing metric through :attr:`queued_service`, which
    :meth:`LinkChannel.queue_delay` folds into the paper's ``Q_i``.
    """

    channel: LinkChannel
    mode: str = "fair"
    #: tag -> priority (higher wins); missing tags rank 0.
    priorities: dict = field(default_factory=dict)
    #: Service seconds of requests waiting in arbitration (not yet on
    #: the wire) — the cross-query backlog for ``queue_delay``.
    queued_service: float = 0.0
    _waiting: dict = field(default_factory=dict)
    _rotation: list = field(default_factory=list)
    #: The continuation of the transfer on the wire; ``None`` = idle.
    _owner: "Callable[[bool], None] | None" = None

    def __post_init__(self) -> None:
        if self.mode not in ARBITRATION_MODES:
            raise ValueError(
                f"unknown arbitration mode {self.mode!r};"
                f" have {ARBITRATION_MODES}"
            )

    def submit(
        self, nbytes: int, tag: object, then: "Callable[[bool], None]"
    ) -> None:
        """Queue one tagged transfer; ``then(outcome)`` runs one step after
        completion, once every link has re-arbitrated at that boundary."""
        channel = self.channel
        if not channel.up:
            # Dead port: fail fast after the launch latency, exactly
            # like the arbiter-free path.
            self._lose(then)
            return
        queue = self._waiting.get(tag)
        if queue is None:
            queue = self._waiting[tag] = deque()
            if self._owner is not None and self._rotation:
                # The tag now on the wire already rotated to the back;
                # a newly arriving tag slots in just ahead of it so it
                # waits one packet, not the whole in-flight backlog.
                self._rotation.insert(len(self._rotation) - 1, tag)
            else:
                self._rotation.append(tag)
        service = channel.service_time(nbytes)
        queue.append((nbytes, service, then))
        self.queued_service += service
        if self._owner is None:
            self._dispatch_next()

    def _lose(self, then: "Callable[[bool], None]") -> None:
        channel = self.channel
        channel.transfers_lost += 1
        engine = channel.engine
        engine.schedule(channel.spec.latency, engine.schedule, 0.0, then, False)

    def _dispatch_next(self) -> None:
        while True:
            tag = self._pick_tag()
            if tag is None:
                self._owner = None
                return
            nbytes, service, then = self._waiting[tag].popleft()
            self.queued_service -= service
            if not self.channel.up:
                # The link died while this request waited its turn; the
                # loss surfaces at the packet's own retry machinery.
                self._lose(then)
                continue
            self._owner = then
            self.channel._book(nbytes, service, self._finish)
            return

    def _finish(self, delivered: bool) -> None:
        # Re-arbitrate at the completion boundary whether or not the
        # wire delivered (an outage mid-flight must not stall the other
        # queries' waiting requests), right behind the owner's resume.
        self.channel.engine.schedule(0.0, self._owner, delivered)
        self._dispatch_next()

    def _pick_tag(self) -> "object | None":
        # The first waiting tag in rotation order among the top rank;
        # in fair mode every tag ranks the same.
        fair = self.mode != "priority"
        priorities = self.priorities
        waiting = self._waiting
        tag = None
        top = 0
        for candidate in self._rotation:
            if not waiting[candidate]:
                continue
            if fair:
                tag = candidate
                break
            rank = priorities.get(candidate, 0)
            if tag is None or rank > top:
                tag, top = candidate, rank
        if tag is None:
            return None
        # Served tags rotate to the back so equal-rank tags share the
        # wire packet-for-packet.
        self._rotation.remove(tag)
        self._rotation.append(tag)
        return tag


@dataclass
class LinkStateBoard:
    """Delayed, change-triggered visibility of link queueing delays.

    ``publish`` is called by a link whenever its queue changes.  The
    change is broadcast — becoming visible to *other* GPUs only after
    ``broadcast_latency`` seconds — when the queue delay moved by more
    than ``threshold`` (relative) or ``quantum`` seconds (absolute,
    roughly one packet service time) since the last broadcast.  This
    mirrors the paper's design where a GPU broadcasts queuing-delay
    changes instead of synchronizing per decision, and
    ``broadcast_count`` measures how chatty that is.

    Per-link state lives in flat lists indexed by link id (grown on
    demand by :meth:`track`), so a suppressed publish does no dict
    operation and the routing metric reads a remote link's view with
    two list indexings.
    """

    engine: Engine
    broadcast_latency: float = 2e-6
    threshold: float = 0.25
    #: Minimum absolute queue-delay change (seconds) worth broadcasting.
    quantum: float = 50e-6
    #: Per link: the clear-at time and the fault penalty remote GPUs
    #: currently see (read directly by the routing metric), and the
    #: clear-at time last broadcast.
    visible_clear_at: list[float] = field(default_factory=list)
    visible_penalty: list[float] = field(default_factory=list)
    _last_broadcast: list[float] = field(default_factory=list)
    broadcast_count: int = 0
    #: Publishes that changed too little to broadcast.
    suppressed_count: int = 0
    #: Latest broadcast value per link, applied at delivery time so a
    #: change published while an earlier broadcast is still in flight is
    #: coalesced into it rather than lost or later overwritten.
    _pending: list[float] = field(default_factory=list)
    _pending_seq: list[int] = field(default_factory=list)
    _delivered_seq: list[int] = field(default_factory=list)
    #: Fault penalties (seconds) as broadcast.
    _fault_pending: list[float] = field(default_factory=list)
    _fault_seq: list[int] = field(default_factory=list)
    _fault_delivered_seq: list[int] = field(default_factory=list)
    #: Heartbeat epochs piggybacked on the broadcast channel: each GPU's
    #: last announced liveness timestamp (crash-recovery detection).
    _heartbeats: dict[int, float] = field(default_factory=dict)

    def track(self, link_id: int) -> None:
        """Make room for every link id up to ``link_id``."""
        missing = link_id + 1 - len(self.visible_clear_at)
        if missing <= 0:
            return
        for values in (
            self.visible_clear_at,
            self._last_broadcast,
            self._pending,
            self._fault_pending,
            self.visible_penalty,
        ):
            values.extend([0.0] * missing)
        for counters in (
            self._pending_seq,
            self._delivered_seq,
            self._fault_seq,
            self._fault_delivered_seq,
        ):
            counters.extend([0] * missing)

    def publish(self, link: LinkChannel) -> None:
        link_id = link.spec.link_id
        now = self.engine.now
        clear_at = link._free_at + link.committed_load
        try:
            last_clear_at = self._last_broadcast[link_id]
        except IndexError:
            self.track(link_id)
            last_clear_at = 0.0
        # ``x if x > y else y`` is ``max(y, x)`` without the builtin
        # call: the same value, ties and signed zeros included.
        new_delay = clear_at - now
        new_delay = new_delay if new_delay > 0.0 else 0.0
        last_delay = last_clear_at - now
        last_delay = last_delay if last_delay > 0.0 else 0.0
        floor = self.threshold * last_delay
        quantum = self.quantum
        if abs(new_delay - last_delay) < (quantum if quantum > floor else floor):
            self.suppressed_count += 1
            return
        self._last_broadcast[link_id] = clear_at
        self.broadcast_count += 1
        self._pending[link_id] = clear_at
        seq = self._pending_seq[link_id] + 1
        self._pending_seq[link_id] = seq
        self.engine.schedule(self.broadcast_latency, self._deliver, link_id, seq)

    def _deliver(self, link_id: int, seq: int) -> None:
        # Apply the *latest* broadcast value, not the one captured when
        # this delivery was scheduled: overlapping broadcasts coalesce,
        # and a stale in-flight delivery can never roll a newer one back.
        if seq < self._delivered_seq[link_id]:
            return
        self._delivered_seq[link_id] = seq
        self.visible_clear_at[link_id] = self._pending[link_id]

    def publish_fault(self, link_id: int, penalty: float) -> None:
        """Broadcast a link-health change to remote GPUs.

        ``penalty`` is the extra queue-delay seconds remote route
        metrics should charge this link (0.0 restores health).  It rides
        the same propagation-delay path as queue-delay broadcasts.
        """
        self.track(link_id)
        self.broadcast_count += 1
        self._fault_pending[link_id] = penalty
        seq = self._fault_seq[link_id] + 1
        self._fault_seq[link_id] = seq
        self.engine.schedule(self.broadcast_latency, self._deliver_fault, link_id, seq)

    def _deliver_fault(self, link_id: int, seq: int) -> None:
        if seq < self._fault_delivered_seq[link_id]:
            return
        self._fault_delivered_seq[link_id] = seq
        self.visible_penalty[link_id] = self._fault_pending[link_id]

    def record_heartbeat(self, gpu_id: int, beat_time: float) -> None:
        """Note a GPU's liveness announcement (piggybacked broadcast).

        Heartbeats ride the same change-triggered broadcast channel as
        queue-delay updates: a live GPU's epoch counter is stamped onto
        every board message it emits, so "last heard from" needs no
        dedicated traffic.  The crash-recovery monitor reads this
        registry to tell a crashed GPU (heartbeats stop) from a
        straggler (heartbeats continue, just slower work).
        """
        if beat_time > self._heartbeats.get(gpu_id, -1.0):
            self._heartbeats[gpu_id] = beat_time

    def last_heartbeat(self, gpu_id: int) -> float:
        """Last liveness timestamp heard from ``gpu_id`` (-1 = never)."""
        return self._heartbeats.get(gpu_id, -1.0)

    def published_queue_delay(self, link_id: int) -> float:
        """Queue delay of ``link_id`` as currently visible to remote GPUs."""
        self.track(link_id)
        base = max(0.0, self.visible_clear_at[link_id] - self.engine.now)
        return base + self.visible_penalty[link_id]
