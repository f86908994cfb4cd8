"""The simulated fabric every flow group of one run shares.

A :class:`Fabric` owns what cannot be split between concurrent flow
groups: the event kernel, the queue-delay :class:`LinkStateBoard`, the
link channels (optionally wrapped in per-link :class:`LinkArbiter`
instances), the telemetry :class:`~repro.obs.stream.LinkPump`, the
fault injector and the run's activity recorders
(:mod:`repro.sim.recorder`).  A solo shuffle puts one
:class:`~repro.sim.shuffle.ShuffleGroup` on it; the serving layer puts
one per admitted query.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from repro.sim.engine import Engine
from repro.sim.linksim import (
    ARBITRATION_MODES,
    LinkArbiter,
    LinkChannel,
    LinkLanes,
    LinkStateBoard,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs import Observer
    from repro.obs.spans import SpanTracer
    from repro.sim.shuffle import ShuffleConfig
    from repro.topology.machine import MachineTopology

__all__ = ["Fabric"]

#: Run-end counters a flow group's components keep: metric name ->
#: ``"<ShuffleGroup attribute>.<count on that component>"``.
GROUP_TOTALS = {
    "faults.retries": "recovery.retries",
    "faults.reroutes": "recovery.reroutes",
    "faults.fallbacks": "recovery.fallbacks",
    "faults.packets_recovered": "recovery.packets_recovered",
    "integrity.retransmits": "integrity.stats.retransmits",
    "integrity.checksum_failures": "integrity.stats.checksum_failures",
    "integrity.dup_dropped": "integrity.stats.dup_dropped",
    "recovery.crashes_detected": "coordinator.crashes_detected",
}


class Fabric:
    """Everything concurrent flow groups share: clock, links, board, faults.

    ``tracer`` is a span store that receives one ``"transfer"`` span per
    link transfer (:class:`~repro.sim.linksim.LinkLanes`); ``sampler``
    is a :class:`~repro.obs.analyze.LinkTimelineSampler`.  With the
    observer's conformance probe and the observer itself they form
    :attr:`recorders`, the one tuple the whole simulator reports to.
    """

    def __init__(
        self,
        machine: "MachineTopology",
        config: "ShuffleConfig | None" = None,
        *,
        engine_factory=None,
        arbitration: str | None = None,
        tracer: "SpanTracer | None" = None,
        observer: "Observer | None" = None,
        sampler=None,
    ) -> None:
        from repro.sim.shuffle import ShuffleConfig

        if arbitration is not None and arbitration not in ARBITRATION_MODES:
            raise ValueError(
                f"unknown arbitration mode {arbitration!r}; "
                f"choose from {ARBITRATION_MODES}"
            )
        self.machine = machine
        self.config = config or ShuffleConfig()
        self.observer = observer
        factory = engine_factory if engine_factory is not None else Engine
        self.engine: Engine = factory()
        self.board = LinkStateBoard(
            self.engine,
            broadcast_latency=self.config.broadcast_latency,
            threshold=self.config.broadcast_threshold,
            quantum=self.config.broadcast_quantum,
        )
        lanes = LinkLanes(tracer) if tracer is not None else None
        conformance = observer.conformance if observer is not None else None
        #: Activity recorders, in call order.
        self.recorders: tuple = tuple(
            recorder
            for recorder in (sampler, lanes, conformance, observer)
            if recorder is not None
        )
        #: Every flow group placed on the fabric, finished or not.
        self.groups: list = []
        self.links: dict[int, LinkChannel] = {
            spec.link_id: LinkChannel(
                self.engine, spec, self.board, self.recorders
            )
            for spec in machine.links
        }
        if arbitration is not None:
            for channel in self.links.values():
                channel.arbiter = LinkArbiter(channel, mode=arbitration)
        if sampler is not None:
            sampler.bind(self.engine, self.links)
        self.injector: "FaultInjector | None" = None
        self.stream = observer.stream if observer is not None else None
        if self.stream is not None:
            from repro.obs.stream import LinkPump

            LinkPump(self.stream, self.engine, self.links)

    def bind_faults(self, plan: "FaultPlan", gpu_universe: set[int]) -> None:
        """Arm the fault injector and schedule every fault of ``plan``.

        ``gpu_universe`` is the set of GPUs that count as valid fault
        targets.  Flow groups enter the injector's fan-out when they
        start (:meth:`~repro.sim.shuffle.ShuffleGroup.start`).
        """
        from repro.faults.injector import FaultInjector

        self.injector = FaultInjector(plan)
        self.injector.bind(
            engine=self.engine,
            links=self.links,
            board=self.board,
            machine=self.machine,
            packet_size=self.config.packet_size,
            recorders=self.recorders,
            gpu_universe=gpu_universe,
        )

    def export_metrics(self) -> None:
        """Write the run's totals to the observer's metrics.

        Called once, when the engine has drained.  Each counter is a
        total some component already keeps: ``link.bytes`` and
        ``link.transfers`` per link, the board's broadcasts, then
        :data:`GROUP_TOTALS` and ``shuffle.delivered_bytes`` per GPU
        summed over every flow group on the fabric.  A total that stays
        at zero gets no series.
        """
        if self.observer is None:
            return
        metrics = self.observer.metrics
        for channel in self.links.values():
            if channel.transfers:
                label = str(channel.spec)
                metrics.counter("link.bytes", link=label).inc(channel.bytes_sent)
                metrics.counter("link.transfers", link=label).inc(
                    channel.transfers
                )
        board = self.board
        if board.broadcast_count:
            metrics.counter("board.broadcasts").inc(board.broadcast_count)
        if board.suppressed_count:
            metrics.counter("board.suppressed").inc(board.suppressed_count)
        for group in self.groups:
            for name, path in GROUP_TOTALS.items():
                part, _, count = path.partition(".")
                component = getattr(group, part)
                total = attrgetter(count)(component) if component is not None else 0
                if total:
                    metrics.counter(name).inc(total)
            for gpu_id, node in group.nodes.items():
                if node.stats.delivered_bytes:
                    metrics.counter("shuffle.delivered_bytes", gpu=gpu_id).inc(
                        node.stats.delivered_bytes
                    )

    def set_priority(self, tag: int, priority: int) -> None:
        """Record one query's arbitration priority on every shared link."""
        if priority == 0:
            return
        for channel in self.links.values():
            if channel.arbiter is not None:
                channel.arbiter.priorities[tag] = priority

    @property
    def crashed_gpus(self) -> set[int]:
        return self.injector.crashed_gpus if self.injector is not None else set()
