"""End-to-end simulation of the data-distribution step (paper §4).

Given a *flow matrix* — how many (possibly compressed) bytes each GPU
must send to each other GPU — a :class:`ShuffleGroup` wires per-GPU
sender/receiver machinery and a routing policy onto a shared
:class:`~repro.sim.fabric.Fabric`.  It is the only place a shuffle is
wired: the :class:`ShuffleSimulator` runs one group on a fresh fabric,
while the serving layer runs one group per admitted query on a fabric
they all share.  Either way the group builds its own
:class:`~repro.sim.stats.ShuffleReport` with the timings, per-link
utilization and bisection statistics the paper's Figures 5-10 report.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.routing.base import RoutingContext, RoutingPolicy
from repro.sim.engine import SimulationError
from repro.sim.fabric import Fabric
from repro.sim.gpusim import GpuNode, Packet
from repro.sim.integrity import TransportIntegrity
from repro.sim.recovery import (
    CrashCoordinator,
    RecoveryConfig,
    RecoveryManager,
    RetryPolicy,
)
from repro.sim.stats import LinkStats, ShuffleReport, bisection_cut
from repro.topology.machine import MachineTopology
from repro.topology.routes import RouteEnumerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

MB = 1024 * 1024


@dataclass(frozen=True)
class ShuffleConfig:
    """Tunables of the data-distribution machinery (paper defaults).

    ``packet_size=2 MB`` and ``batch_size=8`` are the values the paper
    profiles as cost-effective on the DGX-1 (§4.1, Figure 4).
    """

    packet_size: int = 2 * MB
    batch_size: int = 8
    header_bytes: int = 16
    #: Routing-buffer slots per neighbouring GPU at each receiver.
    buffer_slots: int = 64
    #: Credit re-synchronization latency when a sender runs dry (§4.1).
    buffer_sync_latency: float = 5e-6
    #: Queue-delay broadcast propagation latency (§4.2.2).
    broadcast_latency: float = 2e-6
    #: Relative change needed before a queue-delay update is broadcast.
    broadcast_threshold: float = 0.25
    #: Absolute queue-delay change (seconds) always worth broadcasting.
    broadcast_quantum: float = 50e-6
    #: Concurrent DMA engines (simultaneous outgoing transfers) per GPU.
    #: Six lets a V100 drive all of its NVLink ports at once, which is
    #: what NCCL-style ring/tree schedules rely on in practice.
    dma_engines: int = 6
    #: Packet-generation rate per GPU in bytes/s — the partition
    #: kernel's output rate; ``None`` = everything available at t=0.
    injection_rate: float | None = 110e9
    #: Packet-consumption rate per GPU (local partitioning input rate);
    #: ``None`` = consumed instantly.
    consume_rate: float | None = 110e9
    #: Cap on intermediate relay GPUs per route.
    max_intermediates: int = 3
    #: Verified transport: stamp a crc32 checksum per packet at send,
    #: verify on delivery, NACK/retransmit corrupt packets and drop
    #: duplicates.  Off by default — the perf-gated configs keep their
    #: byte-identical digests; corruption-class fault plans without it
    #: are *detected* (not repaired) by the end-to-end integrity audit.
    verify_transport: bool = False

    def __post_init__(self) -> None:
        if self.packet_size < 1024:
            raise ValueError("packet_size below 1 KB is not supported")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_slots < self.batch_size:
            raise ValueError("buffer_slots must be >= batch_size")


@dataclass
class FlowMatrix:
    """Bytes each source GPU must deliver to each destination GPU."""

    flows: dict[tuple[int, int], int] = field(default_factory=dict)

    def add(self, src: int, dst: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("flow bytes must be non-negative")
        if src == dst or nbytes == 0:
            return
        key = (src, dst)
        self.flows[key] = self.flows.get(key, 0) + int(nbytes)

    def outgoing(self, src: int) -> dict[int, int]:
        return {
            dst: nbytes for (s, dst), nbytes in self.flows.items() if s == src
        }

    @property
    def total_bytes(self) -> int:
        return sum(self.flows.values())

    @property
    def gpus(self) -> tuple[int, ...]:
        ids = {src for src, _ in self.flows} | {dst for _, dst in self.flows}
        return tuple(sorted(ids))

    @staticmethod
    def all_to_all(gpu_ids: tuple[int, ...], bytes_per_flow: int) -> "FlowMatrix":
        matrix = FlowMatrix()
        for src in gpu_ids:
            for dst in gpu_ids:
                if src != dst:
                    matrix.add(src, dst, bytes_per_flow)
        return matrix


class ShuffleGroup:
    """One flow group's GPUs wired onto a :class:`Fabric`.

    The group builds everything one shuffle keeps to itself: a route
    enumerator restricted to its GPUs (only participating GPUs relay:
    relaying takes routing-buffer memory a join does not steal from
    GPUs doing other work, §4.1), the routing context, the recovery
    manager (when faults are injected), the integrity layer (when
    verification is requested or the plan can tamper with packets), the
    crash coordinator (when a join-level recovery bridge is present
    too) and one :class:`GpuNode` per GPU.  It keeps a
    running total of delivered bytes, owns the byte-conservation rule,
    measures the distribution step's elapsed time and builds the
    :class:`~repro.sim.stats.ShuffleReport` (:meth:`report`).

    Building a group spawns its node processes; :meth:`start` registers
    it with the fabric's fault injector and injects its flows.
    """

    def __init__(
        self,
        fabric: Fabric,
        gpu_ids: tuple[int, ...],
        flows: FlowMatrix,
        policy: RoutingPolicy,
        *,
        config: ShuffleConfig | None = None,
        faults: "FaultPlan | None" = None,
        retry: RetryPolicy | None = None,
        recovery_bridge=None,
        recovery_config: RecoveryConfig | None = None,
        tag: "int | None" = None,
        query: str = "",
        retry_budget: "int | None" = None,
        on_exhausted: "Callable[[], None] | None" = None,
    ) -> None:
        self.fabric = fabric
        self.gpu_ids = gpu_ids
        self.flows = flows
        #: Serving-layer query name ("" for a solo run); prefixes errors.
        self.query = query
        #: Called once every owed byte has landed (serving sessions).
        self.on_complete: "Callable[[], None] | None" = None
        self.started_at = 0.0
        self.delivered_bytes = 0
        self.packets_delivered = 0
        self.hop_count_total = 0
        config = config or fabric.config
        engine = fabric.engine
        machine = fabric.machine
        observer = fabric.observer
        self.enumerator = RouteEnumerator(
            machine,
            allowed_gpus=gpu_ids,
            max_intermediates=config.max_intermediates,
        )
        conformance = observer.conformance if observer is not None else None
        if conformance is not None and not conformance.policy:
            conformance.policy = policy.name
        context = RoutingContext(
            engine=engine,
            machine=machine,
            enumerator=self.enumerator,
            links=fabric.links,
            board=fabric.board,
            num_gpus=len(gpu_ids),
            observer=observer,
            recorders=fabric.recorders,
            conformance=conformance,
        )
        self.recovery: RecoveryManager | None = None
        if faults is not None:
            self.recovery = RecoveryManager(
                engine,
                # An explicit policy wins over the plan's ``retry:``
                # section, which wins over the defaults.
                policy=retry or RetryPolicy(**faults.retry_kwargs),
                observer=observer,
                # Seeded like presets (crc32, not hash()) so identical
                # chaos runs replay identical retry-jitter schedules.
                jitter_seed=zlib.crc32(faults.name.encode("utf-8"))
                ^ faults.seed
                ^ (tag or 0),
                budget=retry_budget,
                on_exhausted=on_exhausted,
                query=query,
            )
        # The integrity layer exists when verification is requested or
        # the plan can tamper with packets (so the audit sees it);
        # healthy default runs skip it entirely — zero hot-path cost.
        plan_tampering = False
        if faults is not None:
            from repro.faults.plan import CORRUPTION_KINDS

            plan_tampering = any(
                event.kind in CORRUPTION_KINDS for event in faults.events
            )
        self.integrity: TransportIntegrity | None = None
        if config.verify_transport or plan_tampering:
            self.integrity = TransportIntegrity(
                engine, verify=config.verify_transport, observer=observer
            )
        self.coordinator: CrashCoordinator | None = None
        if self.recovery is not None and recovery_bridge is not None:
            self.coordinator = CrashCoordinator(
                engine,
                recovery_config or RecoveryConfig(),
                fabric.board,
                self.enumerator,
                self.recovery,
                packet_size=config.packet_size,
                header_bytes=config.header_bytes,
                bridge=recovery_bridge,
                observer=observer,
                integrity=self.integrity,
            )
        self.nodes: dict[int, GpuNode] = {}
        for gpu_id in gpu_ids:
            self.nodes[gpu_id] = GpuNode(
                engine,
                gpu_id,
                machine,
                fabric.links,
                policy,
                context,
                packet_size=config.packet_size,
                batch_size=config.batch_size,
                header_bytes=config.header_bytes,
                buffer_slots=config.buffer_slots,
                buffer_sync_latency=config.buffer_sync_latency,
                dma_engines=config.dma_engines,
                injection_rate=config.injection_rate,
                consume_rate=config.consume_rate,
                on_delivery=self._on_delivery,
                recovery=self.recovery,
                coordinator=self.coordinator,
                integrity=self.integrity,
                query_tag=tag,
            )
        for node in self.nodes.values():
            node.peers = self.nodes
        if self.coordinator is not None:
            self.coordinator.nodes = self.nodes
            self.coordinator.plan(gpu_ids, flows)

    def start(self) -> None:
        """Enter the fault injector's fan-out and inject every flow."""
        self.started_at = self.fabric.engine.now
        injector = self.fabric.injector
        if injector is not None:
            injector.register_group(
                nodes=self.nodes,
                enumerator=self.enumerator,
                coordinator=self.coordinator,
            )
        for gpu_id in self.gpu_ids:
            outgoing = self.flows.outgoing(gpu_id)
            if outgoing:
                self.nodes[gpu_id].start_flows(outgoing)

    def cancel(self) -> None:
        """Drop every node's outstanding work and leave the injector."""
        for node in self.nodes.values():
            node.cancel_remaining()
        self.stop()

    def stop(self) -> None:
        """Leave the injector's fan-out: later faults no longer reach us."""
        self.on_complete = None
        if self.fabric.injector is not None:
            self.fabric.injector.unregister_group(self.nodes)

    # ------------------------------------------------------------------
    # Delivery accounting
    # ------------------------------------------------------------------

    def _on_delivery(self, packet: Packet) -> None:
        self.delivered_bytes += packet.payload_bytes
        self.packets_delivered += 1
        self.hop_count_total += packet.route.num_hops
        if self.on_complete is not None and self._all_delivered():
            self.on_complete()

    @property
    def crashed(self) -> frozenset[int]:
        if self.coordinator is None:
            return frozenset()
        return self.coordinator.crashed_gpus

    @property
    def dup_bytes(self) -> int:
        """Fault-made duplicate bytes delivered with verification off."""
        return self.integrity.dup_payload_bytes if self.integrity is not None else 0

    def _live_bytes(self, crashed: frozenset[int]) -> int:
        return sum(
            node.stats.delivered_bytes
            for gpu_id, node in self.nodes.items()
            if gpu_id not in crashed
        )

    def _all_delivered(self) -> bool:
        crashed = self.crashed
        if crashed:
            return (
                self._live_bytes(crashed) >= self.coordinator.expected_live_bytes()
            )
        return self.delivered_bytes - self.dup_bytes >= self.flows.total_bytes

    def check_conservation(self) -> None:
        """Raise :class:`SimulationError` unless every owed byte landed once.

        With verification *off*, fault-made duplicate copies are
        delivered twice on purpose (that is the corruption the audit
        must catch), so exactly those bytes are excused.  Under crash
        recovery every *surviving* destination must have received
        exactly what it was owed — original flows plus re-shuffled
        partitions.
        """
        prefix = f"query {self.query!r}: " if self.query else ""
        dup_bytes = self.dup_bytes
        crashed = self.crashed
        if crashed:
            live = self._live_bytes(crashed)
            expected = self.coordinator.expected_live_bytes()
            if not expected <= live <= expected + dup_bytes:
                raise SimulationError(
                    f"{prefix}crash recovery lost data: survivors received "
                    f"{live} of {expected} expected bytes"
                )
        elif self.delivered_bytes - dup_bytes != self.flows.total_bytes:
            raise SimulationError(
                f"{prefix}shuffle stalled: delivered {self.delivered_bytes} "
                f"of {self.flows.total_bytes} bytes (possible buffer deadlock)"
            )

    @property
    def elapsed(self) -> float:
        """Start to last delivery on a surviving GPU.

        The data-distribution step ends when the last packet lands on
        its destination GPU; draining the consumer (local partitioning)
        continues overlapped and is reported separately.  Crashed GPUs
        stop counting: the join resumes on survivors.
        """
        crashed = self.crashed
        return max(
            (
                node.stats.last_delivery_time - self.started_at
                for gpu_id, node in self.nodes.items()
                if gpu_id not in crashed
            ),
            default=0.0,
        )

    def report(self, policy_name: str) -> ShuffleReport:
        """Check conservation, then report this group's shuffle.

        Called once the engine has drained, by a solo run and by a
        served query alike.  The flow, packet, recovery and integrity
        fields are the group's own; the link-level fields read the
        fabric, which a served query shares with every other tenant.
        """
        self.check_conservation()
        elapsed = self.elapsed
        nodes = self.nodes
        fabric = self.fabric
        links = fabric.links
        report = ShuffleReport(
            policy_name=policy_name,
            num_gpus=len(self.gpu_ids),
            elapsed=elapsed,
            payload_bytes=self.flows.total_bytes,
            delivered_bytes=self.delivered_bytes,
            wire_bytes=sum(channel.bytes_sent for channel in links.values()),
            packets_delivered=self.packets_delivered,
            hop_count_total=self.hop_count_total,
            link_stats={
                link_id: LinkStats(
                    spec=channel.spec,
                    bytes_sent=channel.bytes_sent,
                    busy_time=channel.busy_time,
                    transfers=channel.transfers,
                )
                for link_id, channel in links.items()
                if channel.transfers > 0
            },
            cut=bisection_cut(fabric.machine, self.gpu_ids),
            buffer_sync_count=sum(
                node.buffer_sync_count for node in nodes.values()
            ),
            board_broadcast_count=fabric.board.broadcast_count,
            sync_time_total=sum(node.stats.sync_time for node in nodes.values()),
            consume_finish_time=max(
                (node.stats.last_consume_time for node in nodes.values()),
                default=0.0,
            ),
            per_gpu_delivered={
                gpu_id: nodes[gpu_id].stats.delivered_bytes
                for gpu_id in self.gpu_ids
            },
            recovery=(
                self.coordinator.build_stats(elapsed) if self.crashed else None
            ),
            integrity=(
                self.integrity.build_stats() if self.integrity is not None else None
            ),
        )
        if fabric.injector is not None:
            report.faults_injected = fabric.injector.faults_injected
        recovery = self.recovery
        if recovery is not None:
            report.packet_retries = recovery.retries
            report.packet_reroutes = recovery.reroutes
            report.packet_fallbacks = recovery.fallbacks
            report.packets_recovered = recovery.packets_recovered
        return report


class ShuffleSimulator:
    """Runs one data-distribution step on a machine under a policy."""

    def __init__(
        self,
        machine: MachineTopology,
        gpu_ids: tuple[int, ...] | None = None,
        config: ShuffleConfig | None = None,
        tracer=None,
        observer=None,
        sampler=None,
        faults: "FaultPlan | None" = None,
        retry: RetryPolicy | None = None,
        recovery_bridge=None,
        recovery_config: RecoveryConfig | None = None,
        engine_factory=None,
    ) -> None:
        self.machine = machine
        #: Builds the event kernel for each run.  ``None`` (the
        #: default) is :class:`~repro.sim.engine.Engine`; pass e.g.
        #: ``lambda: Engine(fast=False)`` to pin the all-heap
        #: reference kernel (the equivalence tests do exactly that).
        self.engine_factory = engine_factory
        #: Span store that receives one ``"transfer"`` span per link
        #: transfer (per-link trace lanes); ``None`` = off.
        self.tracer = tracer
        #: Observability sink (spans/metrics); ``None`` = off.
        self.observer = observer
        #: Link-timeline sampler (repro.obs.analyze); ``None`` = off.
        self.sampler = sampler
        #: Fault plan injected into the run; ``None`` = healthy fabric.
        self.faults = faults
        #: Retry/backoff/fallback knobs (used only when faults are on).
        self.retry = retry
        #: Join-level crash-recovery bridge (duck-typed: must expose
        #: ``on_gpu_dead(dead_gpu, survivors) -> FlowMatrix``).  When
        #: present *and* faults are injected, GPU crashes become real
        #: compute losses handled by a :class:`CrashCoordinator`;
        #: without it, crashes keep the legacy link-only semantics.
        self.recovery_bridge = recovery_bridge
        self.recovery_config = recovery_config
        self.gpu_ids = tuple(sorted(gpu_ids if gpu_ids is not None else machine.gpu_ids))
        if len(self.gpu_ids) < 2:
            raise ValueError("a shuffle needs at least two GPUs")
        unknown = set(self.gpu_ids) - set(machine.gpu_ids)
        if unknown:
            raise ValueError(f"unknown GPUs: {sorted(unknown)}")
        self.config = config or ShuffleConfig()

    def run(self, flows: FlowMatrix, policy: RoutingPolicy) -> ShuffleReport:
        """Simulate the shuffle to completion and report."""
        foreign = set(flows.gpus) - set(self.gpu_ids)
        if foreign:
            raise ValueError(f"flows reference non-participating GPUs: {foreign}")
        fabric = Fabric(
            self.machine,
            self.config,
            engine_factory=self.engine_factory,
            tracer=self.tracer,
            observer=self.observer,
            sampler=self.sampler,
        )
        engine = fabric.engine
        stream = fabric.stream
        if stream is not None:
            stream.emit(
                "run.started",
                t=engine.now,
                clock="sim",
                gpus=len(self.gpu_ids),
                links=len(fabric.links),
                policy=policy.name,
                faulted=self.faults is not None,
            )
        group = ShuffleGroup(
            fabric,
            self.gpu_ids,
            flows,
            policy,
            faults=self.faults,
            retry=self.retry,
            recovery_bridge=self.recovery_bridge,
            recovery_config=self.recovery_config,
        )
        if self.faults is not None:
            fabric.bind_faults(self.faults, set(group.gpu_ids))
        group.start()
        engine.run()
        fabric.export_metrics()
        conformance = (
            self.observer.conformance if self.observer is not None else None
        )
        if stream is not None:
            stream.emit("kernel", t=engine.now, clock="sim", stats=engine.stats)
            if conformance is not None:
                stream.emit(
                    "conformance", t=engine.now, clock="sim", **conformance.summary()
                )
            stream.emit("run.finished", t=engine.now, clock="sim", elapsed=engine.now)
            stream.flush()
        if conformance is not None:
            conformance.export_metrics(self.observer)
        report = group.report(policy.name)
        if self.observer is not None:
            metrics = self.observer.metrics
            metrics.gauge("shuffle.elapsed_seconds").set(report.elapsed)
            metrics.gauge("shuffle.payload_bytes").set(report.payload_bytes)
            metrics.gauge("shuffle.wire_bytes").set(report.wire_bytes)
            metrics.gauge("shuffle.buffer_syncs").set(report.buffer_sync_count)
            metrics.gauge("shuffle.board_broadcasts").set(
                report.board_broadcast_count
            )
            for name, value in engine.stats.items():
                metrics.gauge(f"engine.{name}").set(value)
            if report.recovery is not None:
                rec = report.recovery
                metrics.gauge("recovery.crashed_gpus").set(len(rec.crashed_gpus))
                metrics.gauge("recovery.detection_latency_seconds").set(
                    rec.max_detection_latency
                )
                metrics.gauge("recovery.reshuffled_bytes").set(
                    rec.reshuffled_bytes
                )
                metrics.gauge("recovery.host_resent_bytes").set(
                    rec.host_resent_bytes
                )
                metrics.gauge("recovery.checkpoint_restored_bytes").set(
                    rec.checkpoint_restored_bytes
                )
                metrics.gauge("recovery.bytes_discarded").set(
                    rec.bytes_discarded
                )
                metrics.gauge("recovery.elapsed_seconds").set(
                    rec.recovery_elapsed
                )
                metrics.gauge("recovery.time_share").set(
                    rec.recovery_share(report.elapsed)
                )
        return report
