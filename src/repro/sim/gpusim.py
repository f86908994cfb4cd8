"""Per-GPU sender / receiver / relay machinery (paper §4.1).

Each participating GPU runs, inside the discrete-event engine:

* an **injector** that turns the GPU's outgoing flows into packets,
  chooses a route per batch via the routing policy, and places packets
  on the per-neighbour outgoing queues.  Injection is paced at the
  partition kernel's throughput, modelling the overlap between
  partitioning and data distribution (Rationale 2).
* ``dma_engines`` **senders** implementing the paper's weighted
  round-robin over outgoing queues: pick the most-loaded queue, take a
  batch of up to ``batch_size`` same-route packets, acquire
  routing-buffer credits at the next hop, and push the packets over
  the hop's physical links.
* a **receiver** that either delivers a packet (final destination —
  handing it to the local-partitioning consumer) or forwards it by
  re-queueing it toward the next hop, releasing the inbound buffer slot
  once the packet has fully left this GPU.

Injectors, senders, the walk over a staged hop's onward links and a
lost packet's retry are engine callbacks: a pacing or back-off delay
schedules the next step, and a finished transfer or a credit calls it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim.engine import Engine, SimulationError
from repro.sim.linksim import LinkChannel
from repro.sim.resources import RoutingBuffer
from repro.topology.machine import MachineTopology, TopologyError
from repro.topology.routes import Route, UnroutableError, route_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.base import RoutingContext, RoutingPolicy
    from repro.sim.integrity import TransportIntegrity
    from repro.sim.recovery import CrashCoordinator, RecoveryManager


@dataclass
class Packet:
    """One unit of routed data (paper: 2 MB payload + small header)."""

    flow_src: int
    flow_dst: int
    payload_bytes: int
    header_bytes: int
    route: Route
    sequence: int
    #: Buffer slot currently holding this packet (None at the source).
    held_buffer: RoutingBuffer | None = None
    #: Simulated time the packet was injected at its source.
    created_at: float = 0.0
    #: Uncontended service time of the packet's full route — the sum of
    #: link service times with empty queues.  Realized latency minus
    #: this is the packet's congestion-queueing share.
    ideal_latency: float = 0.0
    #: Transmission attempts that ended in a loss (0 = never lost).
    attempts: int = 0
    #: True once the packet was relayed through the host-staged
    #: fallback path instead of the GPU fabric.
    fallback: bool = False
    #: Verified-transport envelope, stamped by
    #: :class:`~repro.sim.integrity.TransportIntegrity` when the
    #: integrity layer is active; all zero (and never read) otherwise.
    #: ``uid`` is run-unique — ``sequence`` alone collides between the
    #: per-GPU injector counters and the crash coordinator's host sends.
    uid: int = 0
    payload_token: int = 0
    checksum: int = 0
    #: True on a fault-made duplicate copy: it carries no accounting
    #: weight (the original owns the flow's conservation books).
    duplicate: bool = False
    #: Link id -> service seconds committed on it for the current route
    #: but not yet submitted to the wire.  Submission and loss hand
    #: back exactly the committed amount, so a lost packet stops the
    #: adaptive metric charging a route it abandoned and a bandwidth
    #: change in between leaves no phantom load.
    pending_links: dict[int, float] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + self.header_bytes


@dataclass
class GpuShuffleStats:
    """Per-GPU counters collected during a shuffle."""

    delivered_bytes: int = 0
    delivered_packets: int = 0
    forwarded_packets: int = 0
    injected_packets: int = 0
    last_delivery_time: float = 0.0
    last_consume_time: float = 0.0
    sync_time: float = 0.0


class GpuNode:
    """One GPU's view of the shuffle: queues, buffers, senders."""

    def __init__(
        self,
        engine: Engine,
        gpu_id: int,
        machine: MachineTopology,
        links: dict[int, LinkChannel],
        policy: "RoutingPolicy",
        context: "RoutingContext",
        *,
        packet_size: int,
        batch_size: int,
        header_bytes: int,
        buffer_slots: int,
        buffer_sync_latency: float,
        dma_engines: int,
        injection_rate: float | None,
        consume_rate: float | None,
        on_delivery: Callable[[Packet], None],
        recovery: "RecoveryManager | None" = None,
        coordinator: "CrashCoordinator | None" = None,
        integrity: "TransportIntegrity | None" = None,
        query_tag: "int | None" = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if buffer_slots < batch_size:
            raise ValueError(
                "buffer_slots must be >= batch_size or batches could deadlock"
            )
        self.engine = engine
        self.gpu_id = gpu_id
        self.machine = machine
        self.links = links
        self.policy = policy
        self.context = context
        #: Per-route static records, shared by every enumerator on the
        #: machine.
        self._route_cache = route_cache(machine)
        self.packet_size = packet_size
        self.batch_size = batch_size
        self.header_bytes = header_bytes
        self.injection_rate = injection_rate
        self.consume_rate = consume_rate
        self.on_delivery = on_delivery
        #: Retry/re-route/fallback machinery; ``None`` = packets are
        #: never lost, so the legacy fast path runs unchanged.
        self.recovery = recovery
        #: Crash-recovery bookkeeping; ``None`` = GPUs cannot die, so
        #: no crash check ever runs on the hot path.
        self.coordinator = coordinator
        #: Verified-transport envelope state; ``None`` = packets are
        #: never stamped or checked, the legacy path runs unchanged.
        self.integrity = integrity
        #: Serving-layer query id stamped onto every wire transfer this
        #: node submits, so shared-link arbiters can tell tenants apart;
        #: ``None`` (every pre-serve run) leaves transfers untagged.
        self.query_tag = query_tag
        #: Set by :meth:`crash`: this GPU does no further work.
        self.crashed = False
        self.crash_time: float | None = None
        #: Set by :meth:`cancel_remaining` (deadline expiry / retry
        #: give-up): outstanding work is dropped without crash books.
        self.cancelled = False
        #: ``remaining`` dicts of the live injectors, so flows
        #: toward a dead destination can be cancelled at the source.
        self._active_remaining: list[dict[int, int]] = []
        #: Healthy rates, restored when a straggler fault clears.
        self._base_injection_rate = injection_rate
        self._base_consume_rate = consume_rate
        self.stats = GpuShuffleStats()

        #: Outgoing queues, one per next-hop GPU (created lazily).
        self._queues: dict[int, deque[Packet]] = {}
        #: Inbound routing buffers, one per upstream neighbour GPU.
        self._buffers: dict[int, RoutingBuffer] = {}
        self._buffer_slots = buffer_slots
        self._buffer_sync_latency = buffer_sync_latency
        #: ``run`` methods of DMA engines parked for lack of work.
        self._idle_senders: deque[Callable[[], None]] = deque()
        self._rr_order: deque[int] = deque()
        #: DMA engines currently transmitting toward each next hop.
        self._active_sends: dict[int, int] = {}
        #: next hop -> (receiver, inbound buffer, onward links, first
        #: link); the fabric is static, so each is built once.
        self._wirings: dict[int, tuple] = {}
        self._consumer_free_at = 0.0
        #: (route, dst) pairs that already passed _validate_route; a
        #: route object is immutable, so one successful validation
        #: holds for every later batch on the same flow.
        self._validated_routes: set[tuple[Route, int]] = set()
        self.peers: dict[int, "GpuNode"] = {}
        for _ in range(dma_engines):
            _Sender(self)

    # ------------------------------------------------------------------
    # Buffers
    # ------------------------------------------------------------------

    def buffer_from(self, upstream_gpu: int) -> RoutingBuffer:
        """The circular buffer receiving packets from ``upstream_gpu``."""
        if upstream_gpu not in self._buffers:
            self._buffers[upstream_gpu] = RoutingBuffer(
                self.engine, self._buffer_slots, self._buffer_sync_latency
            )
        return self._buffers[upstream_gpu]

    @property
    def buffer_sync_count(self) -> int:
        return sum(buffer.sync_count for buffer in self._buffers.values())

    # ------------------------------------------------------------------
    # Injection (source side)
    # ------------------------------------------------------------------

    def start_flows(self, flows: dict[int, int]) -> None:
        """Start injecting ``{dst_gpu: payload_bytes}``."""
        _Injector(self, flows)

    def _validate_route(self, route: Route, dst: int) -> None:
        """Reject a policy route that is not a connected src→dst path.

        Successful validations are memoized per (route, dst): routes
        are immutable and policies re-serve the same few candidates for
        every batch of a flow, so the structural walk runs once.
        """
        if (route, dst) in self._validated_routes:
            return
        if route.src != self.gpu_id or route.dst != dst:
            raise SimulationError(
                f"routing policy {self.policy.name!r} returned route "
                f"{route} for flow gpu{self.gpu_id}->gpu{dst}: route "
                f"endpoints do not match the flow"
            )
        for relay in route.intermediates:
            if relay not in self.peers:
                raise SimulationError(
                    f"routing policy {self.policy.name!r} returned route "
                    f"{route} for flow gpu{self.gpu_id}->gpu{dst}, but "
                    f"relay gpu{relay} is not participating in this shuffle"
                )
        for hop_src, hop_dst in route.hops():
            try:
                self.machine.hop_path(hop_src, hop_dst)
            except TopologyError as exc:
                raise SimulationError(
                    f"routing policy {self.policy.name!r} returned route "
                    f"{route} for flow gpu{self.gpu_id}->gpu{dst}, but "
                    f"hop gpu{hop_src}->gpu{hop_dst} is not connected: {exc}"
                ) from exc
        self._validated_routes.add((route, dst))

    def _commit_route(self, packet: Packet) -> None:
        # Links are committed in route order, and the ideal latency is
        # the sum of the very service times the links reserved.
        wire_bytes = packet.wire_bytes
        links = self.links
        pending = packet.pending_links
        pending.clear()
        ideal_latency = 0.0
        for link_id, _, _ in self._route_cache.record(packet.route).hops:
            service = links[link_id].commit(wire_bytes)
            pending[link_id] = service
            ideal_latency += service
        packet.ideal_latency = ideal_latency

    # ------------------------------------------------------------------
    # Outgoing queues + senders
    # ------------------------------------------------------------------

    def enqueue(self, packet: Packet) -> None:
        next_gpu = packet.route.next_gpu_after(self.gpu_id)
        if next_gpu not in self._queues:
            self._queues[next_gpu] = deque()
            self._rr_order.append(next_gpu)
        self._queues[next_gpu].append(packet)
        if self._idle_senders:
            # Woken one step later, not inside the caller's own step.
            self.engine.schedule(0.0, self._idle_senders.popleft())

    def _pick_batch(self) -> list[Packet] | None:
        """Weighted round-robin queue selection (paper §4.1).

        The weight of a queue is its backlog discounted by the number
        of DMA engines already serving it, so concurrent engines spread
        across next hops in proportion to waiting packets instead of
        piling onto the single longest queue."""
        queues = self._queues
        active = self._active_sends
        best_gpu: int | None = None
        best_weight = 0.0
        for next_gpu in self._rr_order:
            queue_len = len(queues[next_gpu])
            if queue_len:
                weight = queue_len / (1.0 + active.get(next_gpu, 0))
                if weight > best_weight:
                    best_gpu, best_weight = next_gpu, weight
        if best_gpu is None:
            return None
        # Rotate so ties go to a different queue next time.
        order = self._rr_order
        order.rotate(-1 - order.index(best_gpu))
        queue = queues[best_gpu]
        batch = [queue.popleft()]
        route = batch[0].route
        while queue and len(batch) < self.batch_size:
            # Interned routes make identity the common match.
            head = queue[0].route
            if head is not route and head != route:
                break
            batch.append(queue.popleft())
        return batch

    def _wiring(self, next_gpu: int) -> tuple:
        """``(receiver, inbound buffer, onward links, first link)`` of
        the hop toward ``next_gpu``; onward links are empty unless the
        hop is staged over several physical links."""
        wiring = self._wirings.get(next_gpu)
        if wiring is None:
            receiver = self.peers[next_gpu]
            links = [
                self.links[spec.link_id]
                for spec in self.machine.hop_path(self.gpu_id, next_gpu)
            ]
            wiring = self._wirings[next_gpu] = (
                receiver,
                receiver.buffer_from(self.gpu_id),
                tuple(links[1:]),
                links[0],
            )
        return wiring

    def _hop_failed(self, packet: Packet, delivered: bool) -> bool:
        """Settle a packet whose link transfer just ended, if it must stop.

        A crashed GPU orphans it, a cancelled query drops it, and a
        loss gives back the slot reserved at the receiver and
        retransmits from this GPU.  Returns whether the packet stopped.
        """
        if self.crashed:
            self._orphan(packet)
        elif self.cancelled:
            self._discard(packet)
        elif not delivered and self.recovery is not None:
            if packet.held_buffer is not None:
                packet.held_buffer.release()
                packet.held_buffer = None
            self._recover(packet, reason="link-down")
        else:
            return False
        return True

    def _fulfill_link(self, packet: Packet, channel: LinkChannel) -> None:
        # A link the packet never committed (a fault-made duplicate
        # forwarded by a relay) releases nothing.
        channel.fulfill(packet.pending_links.pop(channel.spec.link_id, 0.0))

    def _return_commits(self, packet: Packet) -> None:
        """Return committed-but-untraversed link load for a lost packet."""
        for link_id, service in packet.pending_links.items():
            self.links[link_id].fulfill(service)
        packet.pending_links.clear()

    def _discard(self, packet: Packet) -> None:
        """Drop a cancelled query's packet without crash bookkeeping."""
        if packet.held_buffer is not None:
            packet.held_buffer.release()
            packet.held_buffer = None
        self._return_commits(packet)

    def cancel_remaining(self) -> None:
        """Stop this query's outstanding work (deadline / retry give-up).

        Un-injected flow bytes are dropped, queued packets are discarded
        with their link commitments returned, and the injector and
        senders park at their next resumption.  Unlike :meth:`crash`
        this touches no coordinator books — the query is being abandoned
        cleanly, not recovered — and transfers already on the wire
        complete (and are discarded) harmlessly.
        """
        self.cancelled = True
        for remaining in self._active_remaining:
            remaining.clear()
        for queue in self._queues.values():
            while queue:
                self._discard(queue.popleft())

    # ------------------------------------------------------------------
    # Crash semantics (driven by the CrashCoordinator)
    # ------------------------------------------------------------------

    def _orphan(self, packet: Packet) -> None:
        """Hand a packet this GPU can no longer move to the crash books."""
        if packet.held_buffer is not None:
            packet.held_buffer.release()
            packet.held_buffer = None
        self._return_commits(packet)
        if packet.duplicate:
            # A fault-made copy is dropped without touching the books:
            # the original owns the flow's conservation accounting.
            return
        self.coordinator.orphaned(packet)

    def crash(self) -> int:
        """Kill this GPU: stop all send/receive/compute, drop its state.

        Everything the GPU was holding is lost at crash time: queued
        packets are orphaned to the coordinator, and the partition data
        it had already received (``delivered_bytes``) is discarded —
        the returned byte count is what recovery must reproduce
        elsewhere.  The senders and injector observe ``crashed`` at
        their next resumption and park.
        """
        self.crashed = True
        self.crash_time = self.engine.now
        discarded = self.stats.delivered_bytes
        for queue in self._queues.values():
            while queue:
                self._orphan(queue.popleft())
        return discarded

    def fail_buffers(self) -> None:
        """Fail this (dead) GPU's inbound buffers so senders unblock."""
        for buffer in self._buffers.values():
            buffer.mark_dead()

    def cancel_flows_to(self, dead_gpu: int) -> int:
        """Cancel un-injected flow bytes toward a declared-dead GPU."""
        cancelled = 0
        for remaining in self._active_remaining:
            cancelled += remaining.pop(dead_gpu, 0)
        return cancelled

    def purge_dead_flows(self, is_dead: Callable[[int], bool]) -> None:
        """Drop or re-route queued packets involving dead GPUs.

        Packets *destined* to a dead GPU are orphaned (their partitions
        were reassigned); packets merely routed *through* a dead next
        hop toward a live destination are re-routed from here.
        """
        rerouted: list[Packet] = []
        for next_gpu in list(self._queues):
            queue = self._queues[next_gpu]
            if not queue:
                continue
            next_dead = is_dead(next_gpu)
            if not next_dead and not any(is_dead(p.flow_dst) for p in queue):
                continue
            keep: deque[Packet] = deque()
            for packet in queue:
                if is_dead(packet.flow_dst):
                    self._orphan(packet)
                elif next_dead:
                    self._return_commits(packet)
                    rerouted.append(packet)
                else:
                    keep.append(packet)
            self._queues[next_gpu] = keep
        for packet in rerouted:
            self._reroute_packet(packet)

    def _reroute_packet(self, packet: Packet) -> None:
        """Re-route a queued packet whose next hop died under it."""
        try:
            route = self.policy.choose_route(
                self.context,
                self.gpu_id,
                packet.flow_dst,
                packet.payload_bytes,
                self.packet_size,
            )
        except UnroutableError:
            self.recovery.fallback(self, packet, reason="next-hop-dead")
            return
        self._validate_route(route, packet.flow_dst)
        packet.route = route
        self._commit_route(packet)
        self.enqueue(packet)

    # ------------------------------------------------------------------
    # Recovery (lost packets)
    # ------------------------------------------------------------------

    def _recover(self, packet: Packet, reason: str) -> None:
        """A transmission attempt failed; retry, re-route or fall back."""
        recovery = self.recovery
        # Return committed-but-untraversed load so the adaptive metric
        # stops charging a route the packet has abandoned.
        self._return_commits(packet)
        if self.cancelled:
            self._discard(packet)
            return
        if self.coordinator is not None and (
            self.crashed or self.coordinator.is_dead(packet.flow_dst)
        ):
            self.coordinator.orphaned(packet)
            return
        packet.attempts += 1
        if packet.attempts >= recovery.policy.max_attempts:
            recovery.fallback(self, packet, reason=f"{reason}:retries-exhausted")
            return
        # A jittered back-off takes the recovery rng's next value.
        self.engine.schedule(
            recovery.retry_delay(packet.attempts - 1), self._retry, packet, reason
        )

    def _retry(self, packet: Packet, reason: str) -> None:
        recovery = self.recovery
        if self.cancelled:
            self._discard(packet)
            return
        if self.coordinator is not None and (
            self.crashed or self.coordinator.is_dead(packet.flow_dst)
        ):
            self.coordinator.orphaned(packet)
            return
        old_route = packet.route
        try:
            # Re-ask the policy from the packet's *current* GPU so ARM
            # routes the retry around whatever killed the last attempt.
            route = self.policy.choose_route(
                self.context,
                self.gpu_id,
                packet.flow_dst,
                packet.payload_bytes,
                self.packet_size,
            )
        except UnroutableError:
            recovery.fallback(self, packet, reason="unroutable")
            return
        self._validate_route(route, packet.flow_dst)
        packet.route = route
        self._commit_route(packet)
        recovery.record_retry(
            self, packet, reason=reason, rerouted=route != old_route
        )
        self.enqueue(packet)

    def _nack(self, packet: Packet) -> None:
        """Checksum mismatch: ask the source for a pristine retransmit.

        The NACK reuses the loss-recovery machinery at the *source*
        GPU, so the retransmission re-chooses its route, backs off
        through the same bounded-retry schedule, and degrades to the
        host relay once the attempt budget runs out — the host copy is
        re-read from source memory and therefore always pristine.
        """
        self.integrity.stats.retransmits += 1
        self.integrity.restamp(packet)
        source = self.peers.get(packet.flow_src)
        if source is None or source.recovery is None:
            return
        source._recover(packet, reason="checksum-failure")

    def receive_fallback(self, packet: Packet) -> None:
        """Accept a host-relayed packet (no routing-buffer slot held)."""
        packet.held_buffer = None
        if self.crashed:
            # The host relay targeted a GPU that died in the meantime.
            self.coordinator.orphaned(packet)
            return
        self._deliver(packet)

    def apply_slowdown(self, factor: float) -> None:
        """Model a straggler: compute-paced rates slow by ``factor``."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if self._base_injection_rate is not None:
            self.injection_rate = self._base_injection_rate / factor
        if self._base_consume_rate is not None:
            self.consume_rate = self._base_consume_rate / factor

    def clear_slowdown(self) -> None:
        self.injection_rate = self._base_injection_rate
        self.consume_rate = self._base_consume_rate

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def on_arrival(self, packet: Packet) -> None:
        if self.crashed:
            # The wire delivered into a dead GPU; the data is lost with
            # it (abandoned or re-sent depending on the flow endpoint).
            self._orphan(packet)
            return
        if packet.flow_dst == self.gpu_id:
            self._deliver(packet)
        else:
            # Forwarded packets park in the (pointer-based) outgoing
            # queue, so the inbound circular-buffer slot frees as soon
            # as the packet is re-queued.  Holding slots across the
            # onward transmission instead would allow cyclic relay
            # patterns to deadlock on buffer credits.
            self.stats.forwarded_packets += 1
            if packet.held_buffer is not None:
                packet.held_buffer.release()
                packet.held_buffer = None
            self.enqueue(packet)

    def _deliver(self, packet: Packet) -> None:
        if self.integrity is not None:
            verdict = self.integrity.on_deliver(self, packet)
            if verdict != "ok":
                slot = packet.held_buffer
                if slot is not None:
                    slot.release()
                    packet.held_buffer = None
                if verdict == "corrupt":
                    self._nack(packet)
                return
        self.stats.delivered_bytes += packet.payload_bytes
        self.stats.delivered_packets += 1
        self.stats.last_delivery_time = self.engine.now
        if self.coordinator is not None and self.coordinator.checkpointing:
            self.coordinator.note_delivery(self.gpu_id, packet.payload_bytes)
        if self.recovery is not None and (packet.attempts > 0 or packet.fallback):
            self.recovery.packets_recovered += 1
        for recorder in self.context.recorders:
            recorder.record_delivery(packet, self.engine.now)
        slot = packet.held_buffer
        if self.consume_rate is None:
            if slot is not None:
                slot.release()
            self.stats.last_consume_time = self.engine.now
        else:
            start = max(self.engine.now, self._consumer_free_at)
            finish = start + packet.payload_bytes / self.consume_rate
            self._consumer_free_at = finish
            self.stats.last_consume_time = finish
            if slot is not None:
                self.engine.schedule(finish - self.engine.now, slot.release)
        self.on_delivery(packet)


class _Injector:
    """One GPU's injector, run as engine callbacks (paper §4.1).

    It walks the GPU's outgoing flows round-robin, one batch at a time,
    so every flow makes progress and congestion information from earlier
    batches can influence later route choices.  Each batch is routed by
    the policy and its packets are queued toward their next hop.  A
    policy's per-batch sync cost and the partition kernel's pacing are
    sleeps, and a crash or a cancelled query stops the injector at its
    next step.
    """

    __slots__ = ("node", "flows", "remaining", "order", "index", "sequence")

    def __init__(self, node: GpuNode, flows: dict[int, int]) -> None:
        self.node = node
        self.flows = flows
        #: Un-injected bytes per destination, built at the first step.
        self.remaining: dict[int, int] = {}
        #: The destinations of the current round and the next one's index.
        self.order: list[int] = []
        self.index = 0
        self.sequence = 0
        # Started one step later, so every GPU's flows are in place first.
        node.engine.schedule(0.0, self._start)

    def _start(self) -> None:
        node = self.node
        self.remaining = {
            dst: int(nbytes)
            for dst, nbytes in sorted(self.flows.items())
            if dst != node.gpu_id and nbytes > 0
        }
        if node.coordinator is not None:
            node._active_remaining.append(self.remaining)
        self.run()

    def run(self) -> None:
        """Inject batches until one sleeps or every flow is injected."""
        node = self.node
        remaining = self.remaining
        while True:
            if self.index == len(self.order):
                if not remaining:
                    if node.coordinator is not None:
                        node._active_remaining.remove(remaining)
                    return
                self.order, self.index = list(remaining), 0
            dst = self.order[self.index]
            self.index += 1
            if node.crashed or node.cancelled:
                # Un-injected bytes stay in the planned-minus-injected
                # books; the coordinator re-sends them host-side once
                # this GPU is declared dead.  A cancelled query simply
                # stops injecting.
                return
            if dst not in remaining:
                continue  # cancelled while an earlier flow slept
            batch_payload = 0
            batch: list[Packet] = []
            while remaining[dst] > 0 and len(batch) < node.batch_size:
                payload = min(node.packet_size, remaining[dst])
                remaining[dst] -= payload
                batch_payload += payload
                packet = Packet(
                    flow_src=node.gpu_id,
                    flow_dst=dst,
                    payload_bytes=payload,
                    header_bytes=node.header_bytes,
                    route=None,  # assigned by _route
                    sequence=self.sequence,
                )
                if node.integrity is not None:
                    node.integrity.stamp(packet)
                batch.append(packet)
                self.sequence += 1
            if remaining[dst] <= 0:
                del remaining[dst]
            if not batch:
                continue
            sync_cost = node.policy.batch_overhead(node.context)
            if sync_cost > 0:
                node.stats.sync_time += sync_cost
                node.engine.schedule(
                    sync_cost, self._after_sync, dst, batch, batch_payload
                )
                return
            pace = self._route(dst, batch, batch_payload)
            if pace is not None:
                node.engine.schedule(pace, self.run)
                return

    def _after_sync(self, dst: int, batch: list[Packet], batch_payload: int) -> None:
        node = self.node
        if node.crashed or node.cancelled:
            return
        pace = self._route(dst, batch, batch_payload)
        if pace is None:
            self.run()
        else:
            node.engine.schedule(pace, self.run)

    def _route(self, dst: int, batch: list[Packet], batch_payload: int) -> float | None:
        """Route and queue one batch; returns the pacing delay, if any."""
        node = self.node
        coordinator = node.coordinator
        now = node.engine.now
        if coordinator is not None and coordinator.is_dead(dst):
            # Declared dead while this batch was being built: the
            # partitions were reassigned, drop the bytes.
            for packet in batch:
                packet.created_at = now
                coordinator.orphaned(packet)
            return None
        try:
            route = node.policy.choose_route(
                node.context, node.gpu_id, dst, batch_payload, node.packet_size
            )
        except UnroutableError as exc:
            if node.recovery is None:
                raise SimulationError(
                    f"flow gpu{node.gpu_id}->gpu{dst} became "
                    f"unroutable and no recovery is configured: {exc}"
                ) from exc
            # Every fabric path to this destination is dead; degrade
            # the whole batch to the host relay.
            for packet in batch:
                packet.route = Route((node.gpu_id, dst))
                packet.created_at = now
                node.stats.injected_packets += 1
                if coordinator is not None:
                    coordinator.note_injected(node.gpu_id, dst, packet.payload_bytes)
                node.recovery.fallback(node, packet, reason="unroutable-at-source")
        else:
            node._validate_route(route, dst)
            for recorder in node.context.recorders:
                recorder.record_injection(node, route, batch)
            for packet in batch:
                packet.route = route
                packet.created_at = now
                node._commit_route(packet)
                node.enqueue(packet)
                node.stats.injected_packets += 1
                if coordinator is not None:
                    coordinator.note_injected(node.gpu_id, dst, packet.payload_bytes)
        if node.injection_rate is None:
            return None
        return batch_payload / node.injection_rate


class _Sender:
    """One DMA engine of a GPU, run as engine callbacks (paper §4.1).

    It repeatedly takes a batch of same-route packets from the weighted
    round-robin (:meth:`GpuNode._pick_batch`) and, packet by packet,
    claims a routing-buffer credit at the next hop and pushes the
    packet over the hop's first link.  The engine is busy until that
    link finishes; onward links of a staged hop are walked by a detached
    :class:`_StagedHop`, so the next packet pipelines behind.

    A credit shortage hands :meth:`RoutingBuffer.acquire` the
    continuation :meth:`_acquired`, and the link calls :meth:`_sent`
    when the transfer ends.
    """

    __slots__ = ("node", "batch", "index", "next_gpu", "wiring")

    def __init__(self, node: GpuNode) -> None:
        self.node = node
        #: The batch being sent and the index of the packet after the
        #: one in flight; ``None`` between batches.
        self.batch: list[Packet] | None = None
        self.index = 0
        self.next_gpu = 0
        self.wiring: tuple = ()
        node._idle_senders.append(self.run)

    def run(self) -> None:
        """Send until a packet waits on a credit or the wire, or work runs out."""
        node = self.node
        while True:
            batch = self.batch
            if batch is None:
                batch = node._pick_batch()
                if batch is None:
                    node._idle_senders.append(self.run)
                    return
                # The picked queue rotated to the back of the order.
                next_gpu = node._rr_order[-1]
                self.batch, self.index, self.next_gpu = batch, 0, next_gpu
                self.wiring = node._wiring(next_gpu)
                node._active_sends[next_gpu] = node._active_sends.get(next_gpu, 0) + 1
            while self.index < len(batch):
                packet = batch[self.index]
                self.index += 1
                if node.cancelled:
                    node._discard(packet)
                    continue
                if node.coordinator is not None and (
                    node.crashed or node.coordinator.is_dead(packet.flow_dst)
                ):
                    # This GPU died, or the destination was declared
                    # dead and its partitions reassigned — either way
                    # the packet is handed to the crash books.
                    node._orphan(packet)
                    continue
                inbound = self.wiring[1]
                if not inbound.try_acquire():
                    recovery = node.recovery
                    if recovery is None:
                        timeout = None
                    elif inbound.dead:
                        # acquire() would refuse at once.
                        node._recover(packet, reason="credit-timeout")
                        continue
                    else:
                        timeout = recovery.policy.acquire_timeout
                    inbound.acquire(timeout, self._acquired)
                    return
                self._transmit(packet)
                return
            node._active_sends[self.next_gpu] -= 1
            self.batch = None

    def _acquired(self, acquired: bool) -> None:
        packet = self.batch[self.index - 1]
        if acquired or self.node.recovery is None:
            self._transmit(packet)
            return
        # The receiver's credits never freed (crashed GPU?) — recover
        # instead of deadlocking.
        self.node._recover(packet, reason="credit-timeout")
        self.run()

    def _transmit(self, packet: Packet) -> None:
        node = self.node
        _, inbound, _, first_link = self.wiring
        packet.held_buffer = inbound
        node._fulfill_link(packet, first_link)
        first_link.transmit(packet.wire_bytes, node.query_tag, then=self._sent)

    def _sent(self, delivered: bool) -> None:
        node = self.node
        packet = self.batch[self.index - 1]
        if not node._hop_failed(packet, delivered):
            receiver, _, onward, first_link = self.wiring
            delay = 0.0
            if node.integrity is not None and first_link.tamper is not None:
                delay = first_link.tamper.apply(node, packet, receiver)
            if onward:
                walk = _StagedHop(node, packet, receiver, onward)
                # Started one step later, behind this engine's next send.
                node.engine.schedule(0.0, walk.start, delay)
            else:
                node.engine.schedule(delay, receiver.on_arrival, packet)
        self.run()


class _StagedHop:
    """One packet crossing the onward links of a staged (multi-link) hop.

    Each link calls :meth:`_sent` when its transfer ends; a tamper delay
    or hold schedules the next link's step.
    """

    __slots__ = ("node", "packet", "receiver", "links", "index")

    def __init__(
        self,
        node: GpuNode,
        packet: Packet,
        receiver: GpuNode,
        links: tuple[LinkChannel, ...],
    ) -> None:
        self.node = node
        self.packet = packet
        self.receiver = receiver
        self.links = links
        self.index = 0

    def start(self, delay: float) -> None:
        """First step, after the first link's tamper ``delay`` (if any)."""
        if delay > 0.0:
            self.node.engine.schedule(delay, self._next)
        else:
            self._next()

    def _next(self) -> None:
        if self.index == len(self.links):
            self.receiver.on_arrival(self.packet)
            return
        node = self.node
        link = self.links[self.index]
        node._fulfill_link(self.packet, link)
        link.transmit(self.packet.wire_bytes, node.query_tag, then=self._sent)

    def _sent(self, delivered: bool) -> None:
        node = self.node
        packet = self.packet
        if node._hop_failed(packet, delivered):
            return
        link = self.links[self.index]
        self.index += 1
        if node.integrity is not None and link.tamper is not None:
            hold = link.tamper.apply(node, packet, self.receiver)
            if hold > 0.0:
                node.engine.schedule(hold, self._next)
                return
        self._next()
