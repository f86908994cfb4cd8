"""The simulated fabric every flow group of one run shares.

A :class:`Fabric` owns what cannot be split between concurrent flow
groups: the event kernel, the queue-delay :class:`LinkStateBoard`, the
link channels (optionally wrapped in per-link :class:`LinkArbiter`
instances), the telemetry :class:`~repro.obs.stream.LinkPump` and the
fault injector.  A solo shuffle puts one
:class:`~repro.sim.shuffle.ShuffleGroup` on it; the serving layer puts
one per admitted query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import Engine
from repro.sim.linksim import (
    ARBITRATION_MODES,
    LinkArbiter,
    LinkChannel,
    LinkStateBoard,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs import Observer
    from repro.sim.shuffle import ShuffleConfig
    from repro.topology.machine import MachineTopology

__all__ = ["Fabric"]


class Fabric:
    """Everything concurrent flow groups share: clock, links, board, faults."""

    def __init__(
        self,
        machine: "MachineTopology",
        config: "ShuffleConfig | None" = None,
        *,
        engine_factory=None,
        arbitration: str | None = None,
        tracer=None,
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
        #: Link-timeline sampler (repro.obs.analyze); ``None`` = off.
        self.sampler = sampler
        factory = engine_factory if engine_factory is not None else Engine
        self.engine: Engine = factory()
        self.board = LinkStateBoard(
            self.engine,
            broadcast_latency=self.config.broadcast_latency,
            threshold=self.config.broadcast_threshold,
            quantum=self.config.broadcast_quantum,
            observer=observer,
        )
        self.links: dict[int, LinkChannel] = {
            spec.link_id: LinkChannel(
                self.engine, spec, self.board, tracer, observer=observer
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
            observer=self.observer,
            gpu_universe=gpu_universe,
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
