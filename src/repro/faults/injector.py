"""Executes a :class:`FaultPlan` against a running shuffle simulation.

The injector is bound to a :class:`~repro.sim.fabric.Fabric` by
:meth:`~repro.sim.fabric.Fabric.bind_faults`, schedules one callback per
fault (plus one per recovery) on the engine clock, and fans each fault
out to the flow groups registered with it
(:class:`~repro.sim.shuffle.ShuffleGroup`).  Faults act by:

* scaling :attr:`LinkChannel.bandwidth_scale` (degradation),
* toggling :meth:`LinkChannel.take_down` / :meth:`bring_up` (blackouts
  and permanent failures — in-flight transfers are lost; each real
  transition is streamed as ``link.down`` / ``link.up``),
* invalidating routes via :meth:`RouteEnumerator.fail_link` (permanent
  failures and GPU crashes),
* slowing a GPU's injection/consumption rates (stragglers),
* installing a :class:`~repro.sim.integrity.PacketTamperer` on a link's
  directed channels (payload corruption, duplication, reordering) —
  applied by the sending GPU, observed by the verified-transport layer.

Every health change is surfaced two ways, mirroring reality: the owning
GPU sees its own port's :meth:`queue_delay` penalty immediately, while
every other GPU learns of it through
:meth:`LinkStateBoard.publish_fault` — the same propagation-delay
broadcast path queue-delay changes ride.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import (
    CORRUPTION_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observer
    from repro.sim.engine import Engine
    from repro.sim.gpusim import GpuNode
    from repro.sim.linksim import LinkChannel, LinkStateBoard
    from repro.sim.recovery import CrashCoordinator
    from repro.topology.machine import MachineTopology
    from repro.topology.routes import RouteEnumerator

#: Queue-delay penalty (seconds) advertised for a down link.  Finite —
#: the ARM metric must still produce comparable numbers — but orders of
#: magnitude above any real queueing delay, so every policy that looks
#: at congestion steers clear of a dead link once the broadcast lands.
LINK_DOWN_PENALTY = 0.1

#: Span/instant track for fault-window visualization in Chrome traces.
FAULT_TRACK = "faults"


class FaultInjector:
    """Schedules and applies one plan's faults on the engine clock."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.faults_injected = 0
        self._engine: "Engine | None" = None
        self._links: dict[int, "LinkChannel"] = {}
        self._board: "LinkStateBoard | None" = None
        self._machine: "MachineTopology | None" = None
        self._packet_size = 0
        self._observer: "Observer | None" = None
        #: Recovery scopes the faults fan out to, one per flow group:
        #: a solo run registers one, the serving layer one per admitted
        #: query, so a shared-fabric fault reaches every affected
        #: query's own recovery stack.
        self._groups: list[
            tuple[
                dict[int, "GpuNode"],
                "RouteEnumerator",
                "CrashCoordinator | None",
            ]
        ] = []
        self._gpu_universe: set[int] = set()
        #: Fabric damage already applied, so scopes registered *after*
        #: a permanent fault can seed their route enumerators and the
        #: admission layer can refuse queries on dead GPUs.
        self.failed_links: set[int] = set()
        self.crashed_gpus: set[int] = set()

    def bind(
        self,
        *,
        engine: "Engine",
        links: dict[int, "LinkChannel"],
        board: "LinkStateBoard",
        machine: "MachineTopology",
        packet_size: int,
        gpu_universe: set[int],
        observer: "Observer | None" = None,
    ) -> None:
        """Attach to one fabric and schedule every fault.

        ``gpu_universe`` is the set of GPUs that count as fault targets
        (a solo shuffle's GPUs, or the union of every admitted query's
        GPU set); the flow groups themselves enter through
        :meth:`register_group`.
        """
        self._engine = engine
        self._links = links
        self._board = board
        self._machine = machine
        self._packet_size = packet_size
        self._observer = observer
        self._groups = []
        self._gpu_universe = set(gpu_universe)
        for event in self.plan.events:
            self._validate(event)
            engine.schedule(event.at, self._inject, event)

    def register_group(
        self,
        *,
        nodes: dict[int, "GpuNode"],
        enumerator: "RouteEnumerator",
        coordinator: "CrashCoordinator | None" = None,
    ) -> None:
        """Register one flow group's recovery scope.

        Faults injected from now on fan out to this scope too: its
        enumerator learns failed links, its nodes take stragglers and
        its coordinator (if any) is told about crashes of GPUs it owns.
        Damage already on the fabric is replayed into the enumerator
        immediately so late-admitted queries never route over a link
        that died before they arrived.
        """
        for link_id in self.failed_links:
            enumerator.fail_link(link_id)
        if self.failed_links:
            enumerator.cache.invalidate()
        self._groups.append((nodes, enumerator, coordinator))

    def unregister_group(self, nodes: dict[int, "GpuNode"]) -> None:
        """Drop a finished session's scope (matched by its nodes dict)."""
        self._groups = [
            group for group in self._groups if group[0] is not nodes
        ]

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------

    def _validate(self, event: FaultEvent) -> None:
        if event.kind in (FaultKind.GPU_STRAGGLER, FaultKind.GPU_CRASH):
            if event.gpu not in self._gpu_universe:
                raise FaultPlanError(
                    f"{event.kind.value} targets gpu{event.gpu}, which is "
                    f"not participating in this shuffle"
                )
        else:
            self._link_pair(event)  # raises if no NVLink exists

    def _link_pair(self, event: FaultEvent) -> list["LinkChannel"]:
        """Both directed channels of the event's GPU↔GPU NVLink."""
        channels = []
        for src, dst in ((event.src, event.dst), (event.dst, event.src)):
            spec = self._machine.nvlink_between(src, dst)
            if spec is not None:
                channels.append(self._links[spec.link_id])
        if not channels:
            raise FaultPlanError(
                f"{event.kind.value} targets gpu{event.src}<->gpu{event.dst}, "
                f"but no NVLink connects them"
            )
        return channels

    def _gpu_channels(self, gpu: int) -> list["LinkChannel"]:
        """Every directed link touching ``gpu`` (NVLink and PCIe)."""
        return [
            channel
            for channel in self._links.values()
            if (channel.spec.src.is_gpu and channel.spec.src.index == gpu)
            or (channel.spec.dst.is_gpu and channel.spec.dst.index == gpu)
        ]

    # ------------------------------------------------------------------
    # Injection / restoration
    # ------------------------------------------------------------------

    def _invalidate_caches(self) -> None:
        # Static route quantities (link lists, latency sums, T_R) are
        # recomputed from scratch after any fault broadcast, so a
        # faulted run can never evaluate routes against a stale cache.
        for _nodes, enumerator, _coordinator in self._groups:
            enumerator.cache.invalidate()

    def _fail_link_everywhere(self, link_id: int) -> None:
        self.failed_links.add(link_id)
        for _nodes, enumerator, _coordinator in self._groups:
            enumerator.fail_link(link_id)

    def _inject(self, event: FaultEvent) -> None:
        self.faults_injected += 1
        self._invalidate_caches()
        kind = event.kind
        if kind is FaultKind.LINK_DEGRADE:
            for channel in self._link_pair(event):
                channel.bandwidth_scale = event.magnitude
                # Extra per-packet service time is the penalty the ARM
                # metric should charge the sagging link.
                penalty = self._packet_size / channel.spec.bandwidth * (
                    1.0 / event.magnitude - 1.0
                )
                channel.fault_penalty = penalty
                self._board.publish_fault(channel.spec.link_id, penalty)
        elif kind is FaultKind.LINK_BLACKOUT:
            for channel in self._link_pair(event):
                self._take_down(channel)
        elif kind is FaultKind.LINK_FAIL:
            for channel in self._link_pair(event):
                self._take_down(channel)
                self._fail_link_everywhere(channel.spec.link_id)
        elif kind is FaultKind.GPU_STRAGGLER:
            for nodes, _enumerator, _coordinator in self._groups:
                if event.gpu in nodes:
                    nodes[event.gpu].apply_slowdown(event.magnitude)
        elif kind is FaultKind.GPU_CRASH:
            self.crashed_gpus.add(event.gpu)
            for channel in self._gpu_channels(event.gpu):
                self._take_down(channel)
                self._fail_link_everywhere(channel.spec.link_id)
            for nodes, _enumerator, coordinator in self._groups:
                # Join-level recovery: the crash is a real compute loss
                # (queues drained, received data discarded, detection
                # scheduled) — not just dead links.  Without a
                # coordinator the legacy link-only semantics apply; a
                # serving session whose query never touches the dead
                # GPU is left entirely alone.
                if coordinator is not None and event.gpu in nodes:
                    coordinator.notice_crash(event.gpu)
        elif kind in CORRUPTION_KINDS:
            self._install_tamperer(event)
        self._emit("fault.inject", event)
        if event.duration is not None:
            self._engine.schedule(event.duration, self._restore, event)

    def _restore(self, event: FaultEvent) -> None:
        self._invalidate_caches()
        kind = event.kind
        if kind is FaultKind.LINK_DEGRADE:
            for channel in self._link_pair(event):
                channel.bandwidth_scale = 1.0
                channel.fault_penalty = 0.0
                self._board.publish_fault(channel.spec.link_id, 0.0)
        elif kind is FaultKind.LINK_BLACKOUT:
            for channel in self._link_pair(event):
                if channel.bring_up():
                    self._emit_link("link.up", channel)
                channel.fault_penalty = 0.0
                self._board.publish_fault(channel.spec.link_id, 0.0)
        elif kind is FaultKind.GPU_STRAGGLER:
            for nodes, _enumerator, _coordinator in self._groups:
                if event.gpu in nodes:
                    nodes[event.gpu].clear_slowdown()
        elif kind in CORRUPTION_KINDS:
            for channel in self._link_pair(event):
                channel.tamper = None
        self._emit("fault.restore", event)
        if self._observer is not None:
            self._observer.add_span(
                f"fault:{kind.value}",
                event.at,
                self._engine.now,
                track=FAULT_TRACK,
                category="fault",
                **self._attrs(event),
            )

    def _install_tamperer(self, event: FaultEvent) -> None:
        """Arm both directed channels of the link with one shared tamperer.

        One tamperer (and one seeded RNG) per fault event, shared by both
        directions, so the corruption pattern is a pure function of the
        plan — independent of packet interleaving across directions.
        Each tampered packet is reported to its sending node's own
        integrity layer, so on a shared fabric the damage lands in the
        report of the query that owns the packet.
        """
        import random
        import zlib

        from repro.sim.integrity import PacketTamperer

        seed = (
            zlib.crc32(
                f"{event.kind.value}:{event.src}:{event.dst}:{event.at}".encode(
                    "utf-8"
                )
            )
            ^ self.plan.seed
        )
        tamperer = PacketTamperer(
            kind=event.kind.value,
            magnitude=event.magnitude,
            rng=random.Random(seed),
        )
        for channel in self._link_pair(event):
            channel.tamper = tamperer

    def _attrs(self, event: FaultEvent) -> dict:
        attrs: dict = {"kind": event.kind.value}
        if event.gpu is not None:
            attrs["gpu"] = event.gpu
        if event.src is not None:
            attrs["src"] = event.src
            attrs["dst"] = event.dst
        if (
            event.kind in (FaultKind.LINK_DEGRADE, FaultKind.GPU_STRAGGLER)
            or event.kind in CORRUPTION_KINDS
        ):
            attrs["magnitude"] = event.magnitude
        return attrs

    def _take_down(self, channel: "LinkChannel") -> None:
        """Take one link down and broadcast its down penalty."""
        if channel.take_down():
            self._emit_link("link.down", channel)
        channel.fault_penalty = LINK_DOWN_PENALTY
        self._board.publish_fault(channel.spec.link_id, LINK_DOWN_PENALTY)

    def _emit_link(self, name: str, channel: "LinkChannel") -> None:
        """Stream one link health transition (``link.down``/``link.up``)."""
        observer = self._observer
        if observer is None or observer.stream is None:
            return
        observer.stream.emit(
            name,
            t=self._engine.now,
            clock="sim",
            link=channel.spec.link_id,
            label=str(channel.spec),
        )

    def _emit(self, name: str, event: FaultEvent) -> None:
        observer = self._observer
        if observer is None:
            return
        if name == "fault.inject":
            observer.metrics.counter(
                "faults.injected", kind=event.kind.value
            ).inc()
        observer.instant(
            name,
            self._engine.now,
            track=FAULT_TRACK,
            category="fault",
            **self._attrs(event),
        )
        if observer.stream is not None:
            observer.stream.emit(
                "fault",
                t=self._engine.now,
                clock="sim",
                action=name,
                **self._attrs(event),
            )
