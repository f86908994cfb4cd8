"""The simulated fabric every flow group of one run shares.

A :class:`Fabric` owns what cannot be split between concurrent flow
groups: the event kernel, the queue-delay :class:`LinkStateBoard`, the
link channels (optionally wrapped in per-link :class:`LinkArbiter`
instances), the fault injector and the run's activity recorders
(:mod:`repro.sim.recorder`).  A solo shuffle puts one
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
    LinkLanes,
    LinkStateBoard,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.sim.shuffle import ShuffleConfig
    from repro.topology.machine import MachineTopology

__all__ = ["Fabric", "run_recorders"]


def run_recorders(observer=None, tracer=None, sampler=None) -> tuple:
    """The recorders of one run, in call order, leaving out what is off.

    ``sampler`` is a :class:`~repro.obs.analyze.LinkTimelineSampler`;
    ``tracer`` is a span store that receives one ``"transfer"`` span per
    link transfer (:class:`~repro.sim.linksim.LinkLanes`); then come
    ``observer``'s conformance probe and ``observer`` itself.
    """
    lanes = LinkLanes(tracer) if tracer is not None else None
    conformance = observer.conformance if observer is not None else None
    return tuple(
        recorder
        for recorder in (sampler, lanes, conformance, observer)
        if recorder is not None
    )


class Fabric:
    """Everything concurrent flow groups share: clock, links, board, faults.

    ``recorders`` is the one tuple the whole simulator reports to
    (:func:`run_recorders`); each is told when the fabric is built and
    when its engine has drained (:meth:`drained`).
    """

    def __init__(
        self,
        machine: "MachineTopology",
        config: "ShuffleConfig | None" = None,
        *,
        engine_factory=None,
        arbitration: str | None = None,
        recorders: tuple = (),
    ) -> None:
        from repro.sim.shuffle import ShuffleConfig

        if arbitration is not None and arbitration not in ARBITRATION_MODES:
            raise ValueError(
                f"unknown arbitration mode {arbitration!r}; "
                f"choose from {ARBITRATION_MODES}"
            )
        self.machine = machine
        self.config = config or ShuffleConfig()
        factory = engine_factory if engine_factory is not None else Engine
        self.engine: Engine = factory()
        self.board = LinkStateBoard(
            self.engine,
            broadcast_latency=self.config.broadcast_latency,
            threshold=self.config.broadcast_threshold,
            quantum=self.config.broadcast_quantum,
        )
        #: Activity recorders, in call order.
        self.recorders = recorders
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
        self.injector: "FaultInjector | None" = None
        for recorder in recorders:
            recorder.record_fabric(self)

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

    def drained(self) -> None:
        """Tell every recorder the engine has drained."""
        for recorder in self.recorders:
            recorder.record_drained(self)

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
