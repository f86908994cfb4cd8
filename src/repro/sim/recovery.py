"""Packet-loss recovery: bounded retry, re-route, host-staged fallback.

When faults are injected (:mod:`repro.faults`), packets can be lost —
a link goes down mid-transfer, or a receiver's routing-buffer credits
never free because the GPU behind them crashed.  The recovery layer
keeps the shuffle *live* under those conditions:

* a lost packet is retried after an exponential-backoff delay, bounded
  by :attr:`RetryPolicy.max_attempts`;
* each retry re-asks the :class:`~repro.routing.base.RoutingPolicy`
  for a route from the packet's *current* GPU, so ARM naturally routes
  around degraded or dead links;
* when no route exists at all (``UnroutableError``) or the retry
  budget is exhausted, the packet degrades gracefully to a
  *host-staged fallback*: the CPU relays it over PCIe at a recorded
  (much slower) rate instead of the join hanging or dropping data.

All recovery events are emitted as ``repro.obs`` instants and counters
so chaos runs can be audited in Chrome traces and ``repro analyze``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.obs import Observer
    from repro.sim.engine import Engine
    from repro.sim.gpusim import GpuNode, Packet
    from repro.sim.integrity import TransportIntegrity
    from repro.sim.linksim import LinkStateBoard
    from repro.sim.shuffle import FlowMatrix
    from repro.sim.stats import RecoveryStats
    from repro.topology.routes import RouteEnumerator


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the retry/backoff/fallback behaviour.

    The total extra delay a packet can accrue across its full retry
    budget is bounded by :meth:`total_delay_bound`, which tests assert
    stays finite and small relative to a shuffle.
    """

    #: Transmission attempts before falling back to host staging
    #: (the first attempt counts, so 4 = 1 try + 3 retries).
    max_attempts: int = 4
    #: Backoff before the first retry, seconds.
    base_delay: float = 100e-6
    #: Multiplier between consecutive retry delays.
    backoff: float = 2.0
    #: Cap on any single retry delay, seconds.
    max_delay: float = 5e-3
    #: How long a sender waits on routing-buffer credits before treating
    #: the receiver as unresponsive and re-routing (covers crashed GPUs
    #: whose buffers will never drain).
    acquire_timeout: float = 20e-3
    #: Host-staged fallback relay bandwidth (CPU copy through sysmem,
    #: pinned-buffer PCIe rate) and per-packet latency.
    host_bandwidth: float = 5e9
    host_latency: float = 50e-6
    #: Retry-delay jitter fraction in [0, 1): each backoff is scaled by
    #: a factor in ``[1 - jitter/2, 1 + jitter/2)``.  The jitter rng is
    #: seeded from the fault plan (crc32 of its name ^ its seed), never
    #: from wall clock or global state, so two identical chaos runs
    #: replay the identical retry schedule.  0 (the default) draws
    #: nothing and leaves every existing digest byte-identical.
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1 (delays must not shrink)")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def retry_delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based, no jitter)."""
        return min(self.max_delay, self.base_delay * self.backoff**attempt)

    def total_delay_bound(self) -> float:
        """Upper bound on backoff delay summed over the retry budget."""
        return sum(self.retry_delay(i) for i in range(self.max_attempts - 1))


@dataclass
class RecoveryManager:
    """Shared recovery state and accounting for one flow group.

    The per-packet recovery logic lives in :class:`GpuNode` (it needs
    the node's queues and routing context); this object centralizes the
    policy knobs, the serialized host-fallback path and the counters
    that surface in :class:`~repro.sim.stats.ShuffleReport`.

    Every retry and host fallback spends one unit of ``budget``; once
    it is exhausted ``on_exhausted`` fires (once, on a zero-delay engine
    event so it never re-enters node coroutines) and the serving layer
    cancels the query with a structured ``retry-budget-exhausted``
    failure instead of letting a permanent fault grind it forever.
    ``budget=None`` (every solo run) is unbounded.
    """

    engine: "Engine"
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    observer: "Observer | None" = None
    #: Seed of the (lazy) retry-jitter rng; derived from the fault plan
    #: by the shuffle driver so identical runs jitter identically.
    jitter_seed: int = 0
    budget: int | None = None
    on_exhausted: Callable[[], None] | None = None
    #: Serving-layer query id; non-empty = every spent unit is streamed
    #: as a ``query`` retry event.
    query: str = ""

    #: Recovery counters (copied onto the shuffle report).
    retries: int = 0
    reroutes: int = 0
    fallbacks: int = 0
    packets_recovered: int = 0
    spent: int = 0
    tripped: bool = field(default=False, repr=False)

    #: The host relay is one staged pipe per destination GPU: fallback
    #: transfers to the same GPU serialize FIFO instead of completing
    #: in parallel at an unrealistic aggregate rate.
    _host_free_at: dict[int, float] = field(default_factory=dict)
    _jitter_rng: "random.Random | None" = field(default=None, repr=False)

    def retry_delay(self, attempt: int) -> float:
        """The policy backoff for ``attempt``, with seeded jitter applied.

        With ``policy.jitter == 0`` (the default) the rng is never even
        created, so the schedule — and every digest — is exactly the
        un-jittered policy value.
        """
        delay = self.policy.retry_delay(attempt)
        if self.policy.jitter > 0.0:
            if self._jitter_rng is None:
                import random

                self._jitter_rng = random.Random(self.jitter_seed)
            delay *= 1.0 + self.policy.jitter * (self._jitter_rng.random() - 0.5)
        return delay

    # ------------------------------------------------------------------
    # Event accounting
    # ------------------------------------------------------------------

    def record_retry(self, node: "GpuNode", packet: "Packet", *, reason: str,
                     rerouted: bool) -> None:
        self.retries += 1
        if rerouted:
            self.reroutes += 1
        if self.observer is not None:
            self.observer.metrics.counter("faults.retries").inc()
            if rerouted:
                self.observer.metrics.counter("faults.reroutes").inc()
            self.observer.instant(
                "packet.retry",
                self.engine.now,
                track=f"gpu{node.gpu_id}",
                category="fault",
                src=packet.flow_src,
                dst=packet.flow_dst,
                attempt=packet.attempts,
                reason=reason,
                route=str(packet.route),
                rerouted=rerouted,
            )
            if self.observer.stream is not None:
                self.observer.stream.emit(
                    "packet.retry",
                    t=self.engine.now,
                    clock="sim",
                    src=packet.flow_src,
                    dst=packet.flow_dst,
                    attempt=packet.attempts,
                    reason=reason,
                    rerouted=rerouted,
                )
        self._charge()

    def record_recovered(self, packet: "Packet") -> None:
        self.packets_recovered += 1
        if self.observer is not None:
            self.observer.metrics.counter("faults.packets_recovered").inc()
            if self.observer.stream is not None:
                self.observer.stream.emit(
                    "packet.recovered",
                    t=self.engine.now,
                    clock="sim",
                    src=packet.flow_src,
                    dst=packet.flow_dst,
                )

    # ------------------------------------------------------------------
    # Host-staged fallback (graceful degradation)
    # ------------------------------------------------------------------

    def host_transfer(self, destination: "GpuNode", packet: "Packet") -> float:
        """Schedule delivery of ``packet`` through the serialized host pipe.

        The transfer is charged ``host_latency + bytes/host_bandwidth``
        and serializes FIFO with other host traffic to the same
        destination GPU.  Returns the simulated finish time.  Shared by
        the per-packet fallback path and the crash coordinator's
        re-shuffle/restore traffic, so both degrade at the same
        (recorded, much slower) host rate.
        """
        now = self.engine.now
        start = max(now, self._host_free_at.get(packet.flow_dst, 0.0))
        service = self.policy.host_latency + (
            packet.wire_bytes / self.policy.host_bandwidth
        )
        finish = start + service
        self._host_free_at[packet.flow_dst] = finish
        self.engine.schedule(finish - now, destination.receive_fallback, packet)
        return finish

    def fallback(self, node: "GpuNode", packet: "Packet", *, reason: str) -> None:
        """Relay ``packet`` to its destination through host memory.

        Delivery then follows the normal path so byte accounting and
        correctness checks stay exact.
        """
        self.fallbacks += 1
        now = self.engine.now
        packet.fallback = True
        destination = node.peers[packet.flow_dst]
        finish = self.host_transfer(destination, packet)
        if self.observer is not None:
            self.observer.metrics.counter("faults.fallbacks").inc()
            self.observer.instant(
                "packet.fallback",
                now,
                track=f"gpu{node.gpu_id}",
                category="fault",
                src=packet.flow_src,
                dst=packet.flow_dst,
                attempts=packet.attempts,
                reason=reason,
                penalty_seconds=finish - now,
            )
            if self.observer.stream is not None:
                self.observer.stream.emit(
                    "packet.fallback",
                    t=now,
                    clock="sim",
                    src=packet.flow_src,
                    dst=packet.flow_dst,
                    reason=reason,
                    penalty_seconds=finish - now,
                )
        self._charge()

    def _charge(self) -> None:
        """Spend one unit of the repair budget (a retry or a fallback)."""
        self.spent += 1
        if (
            self.query
            and self.observer is not None
            and self.observer.stream is not None
        ):
            self.observer.stream.emit(
                "query",
                t=self.engine.now,
                clock="sim",
                action="retry",
                query=self.query,
                spent=self.spent,
            )
        if self.tripped or self.budget is None:
            return
        if self.spent > self.budget:
            self.tripped = True
            if self.on_exhausted is not None:
                self.engine.schedule(0.0, self.on_exhausted)


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the crash-detection / crash-recovery protocol.

    Detection is heartbeat-based: every participating GPU stamps a
    liveness epoch onto the :class:`~repro.sim.linksim.LinkStateBoard`
    broadcasts it already emits, once per ``heartbeat_interval``.  A GPU
    whose heartbeat is ``miss_budget`` intervals stale is declared dead
    (crash), while a straggler — slow but still beating — is never
    declared.  Worst-case detection latency is therefore
    ``(miss_budget + 1) * heartbeat_interval`` plus one broadcast
    propagation delay.

    ``checkpoint_interval`` optionally enables a lightweight host-side
    checkpoint of each GPU's per-partition receive state: every
    interval, the bytes received since the previous tick are appended to
    a host log.  After a crash, data checkpointed by the dead GPU is
    *restored* from the host to the new partition owners instead of
    being re-shuffled from the sources, bounding re-shuffle volume at
    the cost of steady-state checkpoint traffic.  ``None`` disables
    checkpointing (every lost byte is re-shuffled).
    """

    heartbeat_interval: float = 250e-6
    miss_budget: int = 4
    checkpoint_interval: float | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.miss_budget < 1:
            raise ValueError("miss_budget must be >= 1")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive (or None)")


class CrashCoordinator:
    """Sim-side bookkeeping for GPU crashes: detection and re-shuffle.

    One coordinator is attached to a shuffle when the fault plan can
    crash GPUs *and* join-level recovery is enabled.  It owns:

    * **detection** — on a crash it freezes the victim's heartbeat and
      schedules the declaration at the moment the miss budget runs out
      on the engine clock (the deterministic equivalent of a monitor
      polling :meth:`LinkStateBoard.last_heartbeat`);
    * **byte conservation** — planned/injected bytes per flow and
      expected bytes per destination, updated through cancellation,
      orphaned packets and re-shuffle, so the shuffle can assert that
      every surviving destination received exactly what it was owed;
    * **resumption** — at declaration it removes the dead GPU from
      route enumeration, fails its buffers, cancels and purges traffic
      involving it, re-sends lost in-flight data, and asks the
      join-level ``bridge`` (:class:`repro.core.recovery.
      JoinRecoveryCoordinator`) for the re-shuffle flows that move the
      dead GPU's partitions to their new owners.

    The coordinator is pure simulation bookkeeping: when it is absent
    (every healthy run, and legacy bridge-less chaos runs) none of its
    hooks exist on the hot path.
    """

    def __init__(
        self,
        engine: "Engine",
        config: RecoveryConfig,
        board: "LinkStateBoard",
        enumerator: "RouteEnumerator",
        recovery: RecoveryManager,
        *,
        packet_size: int,
        header_bytes: int,
        bridge: "object | None" = None,
        observer: "Observer | None" = None,
        integrity: "TransportIntegrity | None" = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.board = board
        self.enumerator = enumerator
        self.recovery = recovery
        self.packet_size = packet_size
        self.header_bytes = header_bytes
        #: Verified-transport state; host-sent packets are stamped too
        #: so the receiver-side dedup window covers every path.
        self.integrity = integrity
        #: Join-level recovery coordinator (duck-typed: must expose
        #: ``on_gpu_dead(dead_gpu, survivors) -> FlowMatrix``); ``None``
        #: means lost partitions are not re-owned (shuffle-only runs).
        self.bridge = bridge
        self.observer = observer
        self.nodes: dict[int, "GpuNode"] = {}
        self._participants: tuple[int, ...] = ()
        #: Flow-level books: bytes planned / injected per (src, dst).
        self._planned: dict[tuple[int, int], int] = {}
        self._injected: dict[tuple[int, int], int] = {}
        #: Bytes each destination is still owed (conservation check).
        self._expected_by_dst: dict[int, int] = {}
        self._crashed: dict[int, float] = {}
        self._declared: dict[int, float] = {}
        #: Orphaned bytes awaiting re-injection at live sources.
        self._pending_resend: dict[int, dict[int, int]] = {}
        #: Host-checkpoint delivery log: gpu -> (times, cumulative bytes).
        self._delivery_log: dict[int, tuple[list[float], list[int]]] = {}
        self._sequence = 0
        # Telemetry.
        self.reshuffled_bytes = 0
        self.host_resent_bytes = 0
        self.checkpoint_restored_bytes = 0
        self.bytes_discarded = 0
        self.bytes_cancelled = 0
        self.bytes_abandoned = 0
        self._first_crash_at: float | None = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def checkpointing(self) -> bool:
        return self.config.checkpoint_interval is not None

    @property
    def crashed_gpus(self) -> frozenset[int]:
        return frozenset(self._crashed)

    @property
    def dead_gpus(self) -> frozenset[int]:
        """GPUs declared dead (crash detected and recovery triggered)."""
        return frozenset(self._declared)

    def is_dead(self, gpu_id: int) -> bool:
        return gpu_id in self._declared

    def survivors(self) -> tuple[int, ...]:
        return tuple(g for g in self._participants if g not in self._declared)

    def expected_live_bytes(self) -> int:
        """Bytes owed to destinations that are still alive."""
        return sum(
            nbytes
            for dst, nbytes in self._expected_by_dst.items()
            if dst not in self._crashed
        )

    # ------------------------------------------------------------------
    # Books (fed by GpuNode and the injector)
    # ------------------------------------------------------------------

    def plan(self, participants: tuple[int, ...], flows) -> None:
        """Seed the books from the initial flow matrix."""
        self._participants = tuple(sorted(participants))
        for gpu_id in self._participants:
            self._expected_by_dst.setdefault(gpu_id, 0)
            # Everybody is alive and beating when the shuffle starts.
            self.board.record_heartbeat(gpu_id, 0.0)
        for src in self._participants:
            for dst, nbytes in sorted(flows.outgoing(src).items()):
                self._planned[(src, dst)] = (
                    self._planned.get((src, dst), 0) + int(nbytes)
                )
                self._expected_by_dst[dst] = (
                    self._expected_by_dst.get(dst, 0) + int(nbytes)
                )

    def note_injected(self, src: int, dst: int, nbytes: int) -> None:
        key = (src, dst)
        self._injected[key] = self._injected.get(key, 0) + nbytes

    def note_delivery(self, gpu_id: int, nbytes: int) -> None:
        """Append to the (host-checkpointed) receive log of ``gpu_id``."""
        times, cums = self._delivery_log.setdefault(gpu_id, ([], []))
        total = (cums[-1] if cums else 0) + nbytes
        times.append(self.engine.now)
        cums.append(total)

    def checkpointed_bytes(self, gpu_id: int) -> int:
        """Received bytes of ``gpu_id`` safe in the last host checkpoint."""
        interval = self.config.checkpoint_interval
        if interval is None or gpu_id not in self._crashed:
            return 0
        log = self._delivery_log.get(gpu_id)
        if log is None:
            return 0
        tick = math.floor(self._crashed[gpu_id] / interval) * interval
        times, cums = log
        index = bisect_right(times, tick) - 1
        return cums[index] if index >= 0 else 0

    def orphaned(self, packet: "Packet") -> None:
        """Account for a packet lost with a crashed GPU.

        Called when a crashed GPU drains its queues, or when a packet
        destined to a dead GPU is dropped by a live sender.  Bytes bound
        for a dead destination are *abandoned* (their partitions get
        re-shuffled wholesale); bytes bound for a live destination are
        re-sent — from the source GPU over the fabric when it is alive,
        through the host otherwise.
        """
        if packet.duplicate:
            # A fault-made duplicate copy carries no accounting weight;
            # the original packet owns the flow's conservation books.
            return
        src, dst = packet.flow_src, packet.flow_dst
        if dst in self._crashed or dst in self._declared:
            self.bytes_abandoned += packet.payload_bytes
            return
        if src in self._declared:
            # The source's un-injected remainder was already flushed at
            # its declaration; this straggler packet goes host-side too.
            self._host_send(src, dst, packet.payload_bytes)
            return
        key = (src, dst)
        self._injected[key] = self._injected.get(key, 0) - packet.payload_bytes
        if src not in self._crashed:
            per_dst = self._pending_resend.setdefault(src, {})
            per_dst[dst] = per_dst.get(dst, 0) + packet.payload_bytes
        # A crashed-but-undeclared source needs nothing here: lowering
        # its injected count grows the planned-minus-injected remainder
        # that its own declaration re-sends through the host.

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def notice_crash(self, gpu_id: int) -> None:
        """A GPU just crashed: freeze its heartbeat, schedule detection.

        The victim's last heartbeat is the last whole interval it
        completed before the crash; the declaration fires once the miss
        budget elapses past it (plus one broadcast propagation delay for
        the silence to become observable), which is exactly when a
        monitor polling :meth:`LinkStateBoard.last_heartbeat` would see
        the budget exceeded.
        """
        if gpu_id in self._crashed:
            return
        now = self.engine.now
        self._crashed[gpu_id] = now
        if self._first_crash_at is None:
            self._first_crash_at = now
        interval = self.config.heartbeat_interval
        last_beat = math.floor(now / interval) * interval
        self.board.record_heartbeat(gpu_id, last_beat)
        declare_at = (
            last_beat
            + self.config.miss_budget * interval
            + self.board.broadcast_latency
        )
        self.engine.schedule(max(0.0, declare_at - now), self._declare, gpu_id)
        node = self.nodes[gpu_id]
        self.bytes_discarded += node.crash()

    # ------------------------------------------------------------------
    # Declaration + resumption
    # ------------------------------------------------------------------

    def _declare(self, gpu_id: int) -> None:
        if gpu_id in self._declared:
            return
        now = self.engine.now
        self._declared[gpu_id] = now
        crash_at = self._crashed[gpu_id]
        # Survivor-only routing: the dead GPU may no longer source,
        # relay or terminate any route, and its buffer credits will
        # never free — fail them so blocked senders wake immediately.
        self.enumerator.fail_gpu(gpu_id)
        self.nodes[gpu_id].fail_buffers()
        self._expected_by_dst.pop(gpu_id, None)
        for peer_id in sorted(self.nodes):
            peer = self.nodes[peer_id]
            if peer.crashed:
                continue
            self.bytes_cancelled += peer.cancel_flows_to(gpu_id)
            peer.purge_dead_flows(self.is_dead)
        self._flush_resends()
        self._resend_dead_source_remainders(gpu_id)
        if self.observer is not None:
            self.observer.metrics.counter("recovery.crashes_detected").inc()
            # "faults" is FAULT_TRACK in repro.faults.injector (kept as a
            # literal to avoid a sim -> faults import).
            self.observer.add_span(
                f"detect gpu{gpu_id}",
                crash_at,
                now,
                track="faults",
                category="fault",
                gpu=gpu_id,
            )
            self.observer.instant(
                "gpu.declared_dead",
                now,
                track="faults",
                category="fault",
                gpu=gpu_id,
                detection_latency_seconds=now - crash_at,
                miss_budget=self.config.miss_budget,
                heartbeat_interval=self.config.heartbeat_interval,
            )
        if self.bridge is not None:
            reshuffle = self.bridge.on_gpu_dead(gpu_id, self.survivors())
            self._apply_reshuffle(gpu_id, reshuffle)

    def _flush_resends(self) -> None:
        """Re-inject orphaned bytes at their (live) source GPUs."""
        pending, self._pending_resend = self._pending_resend, {}
        for src in sorted(pending):
            flows = {
                dst: nbytes
                for dst, nbytes in sorted(pending[src].items())
                if dst not in self._declared and nbytes > 0
            }
            if not flows:
                continue
            if src in self._declared:
                for dst, nbytes in flows.items():
                    self._host_send(src, dst, nbytes)
                continue
            self.nodes[src].start_flows(flows)

    def _resend_dead_source_remainders(self, gpu_id: int) -> None:
        """Ship the dead GPU's un-injected outgoing bytes via the host.

        The data a crashed GPU never finished sending is re-read from
        the original relations in host memory (the join's input shards
        are host-resident), so it flows to each live destination through
        the host staging pipe rather than being lost.
        """
        for dst in self.survivors():
            if dst == gpu_id or dst in self._crashed:
                continue
            remainder = self._planned.get((gpu_id, dst), 0) - self._injected.get(
                (gpu_id, dst), 0
            )
            if remainder > 0:
                self._host_send(gpu_id, dst, remainder)

    def _apply_reshuffle(self, gpu_id: int, reshuffle) -> None:
        """Move the dead GPU's partitions to their new owners.

        Bytes covered by the dead GPU's last host checkpoint are
        *restored* straight from the host to the new owner; the rest is
        re-shuffled from the (host-resident) original relations — over
        the fabric when the source GPU is alive, through the host pipe
        otherwise.
        """
        budget = self.checkpointed_bytes(gpu_id)
        pending_start: dict[int, dict[int, int]] = {}
        for src in sorted(reshuffle.gpus):
            for dst, nbytes in sorted(reshuffle.outgoing(src).items()):
                if dst in self._declared:
                    continue
                nbytes = int(nbytes)
                take = min(budget, nbytes)
                budget -= take
                fabric = nbytes - take
                self.reshuffled_bytes += nbytes
                self._expected_by_dst[dst] = (
                    self._expected_by_dst.get(dst, 0) + nbytes
                )
                if take > 0:
                    self.checkpoint_restored_bytes += take
                    self._host_send(gpu_id, dst, take, restored=True)
                if fabric > 0:
                    if src in self._declared:
                        self._host_send(src, dst, fabric)
                    else:
                        self._planned[(src, dst)] = (
                            self._planned.get((src, dst), 0) + fabric
                        )
                        per_dst = pending_start.setdefault(src, {})
                        per_dst[dst] = per_dst.get(dst, 0) + fabric
        for src in sorted(pending_start):
            # A crashed-but-undeclared source's injector exits without
            # injecting; the bytes are covered at *its* declaration by
            # the planned-minus-injected remainder.
            self.nodes[src].start_flows(pending_start[src])

    def _host_send(
        self, src: int, dst: int, nbytes: int, *, restored: bool = False
    ) -> None:
        """Push ``nbytes`` from host memory to ``dst``, packetized."""
        if nbytes <= 0 or src == dst:
            return
        if not restored:
            self.host_resent_bytes += nbytes
        from repro.sim.gpusim import Packet  # local: avoid import cycle
        from repro.topology.routes import Route

        destination = self.nodes[dst]
        route = Route((src, dst))
        remaining = int(nbytes)
        while remaining > 0:
            payload = min(self.packet_size, remaining)
            remaining -= payload
            self._sequence += 1
            packet = Packet(
                flow_src=src,
                flow_dst=dst,
                payload_bytes=payload,
                header_bytes=self.header_bytes,
                route=route,
                sequence=self._sequence,
                created_at=self.engine.now,
            )
            if self.integrity is not None:
                self.integrity.stamp(packet)
            self.recovery.host_transfer(destination, packet)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def build_stats(self, elapsed: float) -> "RecoveryStats":
        from repro.sim.stats import RecoveryStats

        detection = {
            gpu_id: self._declared[gpu_id] - self._crashed[gpu_id]
            for gpu_id in sorted(self._declared)
        }
        start = self._first_crash_at if self._first_crash_at is not None else elapsed
        return RecoveryStats(
            crashed_gpus=tuple(sorted(self._crashed)),
            crashed_at=dict(sorted(self._crashed.items())),
            declared_at=dict(sorted(self._declared.items())),
            detection_latency=detection,
            reshuffled_bytes=self.reshuffled_bytes,
            host_resent_bytes=self.host_resent_bytes,
            checkpoint_restored_bytes=self.checkpoint_restored_bytes,
            bytes_discarded=self.bytes_discarded,
            bytes_cancelled=self.bytes_cancelled,
            bytes_abandoned=self.bytes_abandoned,
            recovery_elapsed=max(0.0, elapsed - start),
        )
