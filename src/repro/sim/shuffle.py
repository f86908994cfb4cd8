"""End-to-end simulation of the data-distribution step (paper §4).

Given a *flow matrix* — how many (possibly compressed) bytes each GPU
must send to each other GPU — the :class:`ShuffleSimulator` instantiates
link channels, per-GPU sender/receiver machinery and a routing policy,
runs the discrete-event engine to completion and returns a
:class:`~repro.sim.stats.ShuffleReport` with the timings, per-link
utilization and bisection statistics the paper's Figures 5-10 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.routing.base import RoutingContext, RoutingPolicy
from repro.sim.engine import Engine, SimulationError
from repro.sim.gpusim import GpuNode, Packet
from repro.sim.integrity import TransportIntegrity
from repro.sim.linksim import LinkChannel, LinkStateBoard
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
    #: Allow idle (non-participating) GPUs of the machine to relay
    #: packets.  Off by default: relaying consumes routing-buffer
    #: memory on the relay GPU, which a join does not want to steal
    #: from GPUs processing other work (§4.1).
    allow_external_relays: bool = False
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
        query_tag: "int | None" = None,
    ) -> None:
        self.machine = machine
        #: Builds the event kernel for each run.  ``None`` (the
        #: default) is :class:`Engine`; pass e.g.
        #: ``lambda: Engine(fast=False)`` to pin the all-heap
        #: reference kernel (the equivalence tests do exactly that).
        self.engine_factory = engine_factory if engine_factory is not None else Engine
        self.tracer = tracer
        #: Observability sink (spans/metrics); ``None`` = off.
        self.observer = observer
        #: Link-timeline sampler (repro.obs.analyze); ``None`` = off.
        self.sampler = sampler
        #: Fault plan injected into the run; ``None`` = healthy fabric.
        self.faults = faults
        #: Retry/backoff/fallback knobs (used only when faults are on).
        self.retry = retry or RetryPolicy()
        #: Join-level crash-recovery bridge (duck-typed: must expose
        #: ``on_gpu_dead(dead_gpu, survivors) -> FlowMatrix``).  When
        #: present *and* faults are injected, GPU crashes become real
        #: compute losses handled by a :class:`CrashCoordinator`;
        #: without it, crashes keep the legacy link-only semantics.
        self.recovery_bridge = recovery_bridge
        self.recovery_config = recovery_config or RecoveryConfig()
        #: The coordinator of the most recent run (telemetry access).
        self.coordinator: CrashCoordinator | None = None
        #: Serving-layer query id stamped onto every node this shuffle
        #: creates (see :class:`~repro.sim.gpusim.GpuNode.query_tag`);
        #: ``None`` = untagged single-tenant traffic.
        self.query_tag = query_tag
        self.gpu_ids = tuple(sorted(gpu_ids if gpu_ids is not None else machine.gpu_ids))
        if len(self.gpu_ids) < 2:
            raise ValueError("a shuffle needs at least two GPUs")
        unknown = set(self.gpu_ids) - set(machine.gpu_ids)
        if unknown:
            raise ValueError(f"unknown GPUs: {sorted(unknown)}")
        self.config = config or ShuffleConfig()

    def run(self, flows: FlowMatrix, policy: RoutingPolicy) -> ShuffleReport:
        """Simulate the shuffle to completion and report."""
        config = self.config
        foreign = set(flows.gpus) - set(self.gpu_ids)
        if foreign:
            raise ValueError(f"flows reference non-participating GPUs: {foreign}")
        engine = self.engine_factory()
        board = LinkStateBoard(
            engine,
            broadcast_latency=config.broadcast_latency,
            threshold=config.broadcast_threshold,
            quantum=config.broadcast_quantum,
            observer=self.observer,
        )
        links = {
            spec.link_id: LinkChannel(
                engine, spec, board, self.tracer, observer=self.observer
            )
            for spec in self.machine.links
        }
        if self.sampler is not None:
            self.sampler.bind(engine, links)
        relay_ids = (
            self.machine.gpu_ids if config.allow_external_relays else self.gpu_ids
        )
        enumerator = RouteEnumerator(
            self.machine,
            allowed_gpus=relay_ids,
            max_intermediates=config.max_intermediates,
        )
        conformance = (
            self.observer.conformance if self.observer is not None else None
        )
        if conformance is not None and not conformance.policy:
            conformance.policy = policy.name
        stream = self.observer.stream if self.observer is not None else None
        if stream is not None:
            from repro.obs.stream import LinkPump

            stream.emit(
                "run.started",
                t=engine.now,
                clock="sim",
                gpus=len(self.gpu_ids),
                links=len(links),
                policy=policy.name,
                faulted=self.faults is not None,
            )
            LinkPump(stream, engine, links)
        context = RoutingContext(
            engine=engine,
            machine=self.machine,
            enumerator=enumerator,
            links=links,
            board=board,
            num_gpus=len(self.gpu_ids),
            observer=self.observer,
            sampler=self.sampler,
            conformance=conformance,
        )
        recovery: RecoveryManager | None = None
        if self.faults is not None:
            import zlib

            recovery = RecoveryManager(
                engine,
                policy=self.retry,
                observer=self.observer,
                # Seeded like presets (crc32, not hash()) so identical
                # chaos runs replay identical retry-jitter schedules.
                jitter_seed=zlib.crc32(self.faults.name.encode("utf-8"))
                ^ self.faults.seed,
            )
        # The integrity layer exists when verification is requested or
        # the plan can tamper with packets (so the audit sees it);
        # healthy default runs skip it entirely — zero hot-path cost.
        integrity: TransportIntegrity | None = None
        plan_tampering = False
        if self.faults is not None:
            from repro.faults.plan import CORRUPTION_KINDS

            plan_tampering = any(
                event.kind in CORRUPTION_KINDS for event in self.faults.events
            )
        if config.verify_transport or plan_tampering:
            integrity = TransportIntegrity(
                engine, verify=config.verify_transport, observer=self.observer
            )
        coordinator: CrashCoordinator | None = None
        if recovery is not None and self.recovery_bridge is not None:
            coordinator = CrashCoordinator(
                engine,
                self.recovery_config,
                board,
                enumerator,
                recovery,
                packet_size=config.packet_size,
                header_bytes=config.header_bytes,
                bridge=self.recovery_bridge,
                observer=self.observer,
                integrity=integrity,
            )
        self.coordinator = coordinator
        delivered: list[Packet] = []
        nodes: dict[int, GpuNode] = {}
        for gpu_id in relay_ids:
            nodes[gpu_id] = GpuNode(
                engine,
                gpu_id,
                self.machine,
                links,
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
                on_delivery=delivered.append,
                recovery=recovery,
                coordinator=coordinator,
                integrity=integrity,
                query_tag=self.query_tag,
            )
        for node in nodes.values():
            node.peers = nodes
        if coordinator is not None:
            coordinator.nodes = nodes
            coordinator.plan(self.gpu_ids, flows)
        injector = None
        if self.faults is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(self.faults)
            injector.bind(
                engine=engine,
                links=links,
                board=board,
                nodes=nodes,
                enumerator=enumerator,
                machine=self.machine,
                packet_size=config.packet_size,
                observer=self.observer,
                coordinator=coordinator,
                integrity=integrity,
            )
        for gpu_id in self.gpu_ids:
            outgoing = flows.outgoing(gpu_id)
            if outgoing:
                nodes[gpu_id].start_flows(outgoing)
        engine.run()
        if stream is not None:
            stream.emit("kernel", t=engine.now, clock="sim", stats=engine.stats)
            if conformance is not None:
                stream.emit(
                    "conformance", t=engine.now, clock="sim", **conformance.summary()
                )
            stream.emit("run.finished", t=engine.now, clock="sim", elapsed=engine.now)
            stream.flush()
        if conformance is not None and self.observer is not None:
            conformance.export_metrics(self.observer)
        report = self._build_report(
            engine,
            policy,
            flows,
            links,
            nodes,
            delivered,
            board,
            coordinator,
            integrity,
        )
        if injector is not None:
            report.faults_injected = injector.faults_injected
        if recovery is not None:
            report.packet_retries = recovery.retries
            report.packet_reroutes = recovery.reroutes
            report.packet_fallbacks = recovery.fallbacks
            report.packets_recovered = recovery.packets_recovered
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

    def _build_report(
        self,
        engine: Engine,
        policy: RoutingPolicy,
        flows: FlowMatrix,
        links: dict[int, LinkChannel],
        nodes: dict[int, GpuNode],
        delivered: list[Packet],
        board: LinkStateBoard,
        coordinator: CrashCoordinator | None = None,
        integrity: TransportIntegrity | None = None,
    ) -> ShuffleReport:
        delivered_bytes = sum(node.stats.delivered_bytes for node in nodes.values())
        # With verification *off*, fault-made duplicate copies are
        # delivered twice on purpose (that is the corruption the audit
        # must catch) — excuse exactly those bytes from conservation.
        # Any residual mismatch is still a hard simulation error.
        dup_bytes = integrity.dup_payload_bytes if integrity is not None else 0
        crashed = coordinator.crashed_gpus if coordinator is not None else frozenset()
        if crashed:
            # Conservation under crash recovery: every *surviving*
            # destination must have received exactly the bytes it was
            # owed — original flows plus re-shuffled partitions.
            live_delivered = sum(
                node.stats.delivered_bytes
                for gpu_id, node in nodes.items()
                if gpu_id not in crashed
            )
            expected = coordinator.expected_live_bytes()
            if not expected <= live_delivered <= expected + dup_bytes:
                raise SimulationError(
                    f"crash recovery lost data: survivors received "
                    f"{live_delivered} of {expected} expected bytes"
                )
        elif delivered_bytes - dup_bytes != flows.total_bytes:
            raise SimulationError(
                f"shuffle stalled: delivered {delivered_bytes} of "
                f"{flows.total_bytes} bytes (possible buffer deadlock)"
            )
        # The data-distribution step ends when the last packet lands on
        # its destination GPU; draining the consumer (local
        # partitioning) continues overlapped and is reported separately.
        # Crashed GPUs stop counting: the join resumes on survivors.
        elapsed = max(
            (
                node.stats.last_delivery_time
                for gpu_id, node in nodes.items()
                if gpu_id not in crashed
            ),
            default=0.0,
        )
        consume_finish = max(
            (node.stats.last_consume_time for node in nodes.values()), default=0.0
        )
        link_stats = {
            link_id: LinkStats(
                spec=channel.spec,
                bytes_sent=channel.bytes_sent,
                busy_time=channel.busy_time,
                transfers=channel.transfers,
            )
            for link_id, channel in links.items()
            if channel.transfers > 0
        }
        wire_bytes = sum(channel.bytes_sent for channel in links.values())
        return ShuffleReport(
            policy_name=policy.name,
            num_gpus=len(self.gpu_ids),
            elapsed=elapsed,
            payload_bytes=flows.total_bytes,
            delivered_bytes=delivered_bytes,
            wire_bytes=wire_bytes,
            packets_delivered=len(delivered),
            hop_count_total=sum(packet.route.num_hops for packet in delivered),
            link_stats=link_stats,
            cut=bisection_cut(self.machine, self.gpu_ids),
            buffer_sync_count=sum(
                node.buffer_sync_count for node in nodes.values()
            ),
            board_broadcast_count=board.broadcast_count,
            sync_time_total=sum(node.stats.sync_time for node in nodes.values()),
            consume_finish_time=consume_finish,
            per_gpu_delivered={
                gpu_id: nodes[gpu_id].stats.delivered_bytes
                for gpu_id in self.gpu_ids
            },
            recovery=(
                coordinator.build_stats(elapsed) if crashed else None
            ),
            integrity=integrity.build_stats() if integrity is not None else None,
        )
