"""Routing policy interface and shared context.

A policy sees a :class:`RoutingContext` — the machine, the candidate
route enumerator, live link channels and the (delayed) link-state board
— and must pick a route for each batch of packets.  Policies are
deliberately *per-source* decision makers: the paper fixes each packet's
route at the source GPU to avoid cross-GPU synchronization (§4.2.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.sim.engine import Engine
from repro.sim.linksim import LinkChannel, LinkStateBoard
from repro.topology.machine import MachineTopology
from repro.topology.routes import (
    Route,
    RouteEnumerator,
    RouteRecord,
    UnroutableError,
)


@dataclass
class RoutingContext:
    """Everything a routing policy may consult when choosing a route."""

    engine: Engine
    machine: MachineTopology
    enumerator: RouteEnumerator
    links: dict[int, LinkChannel]
    board: LinkStateBoard
    num_gpus: int
    #: Activity recorders (the fabric's
    #: :attr:`~repro.sim.fabric.Fabric.recorders`); every routing
    #: decision, routed batch and delivered packet is reported to each
    #: of them.
    recorders: tuple = ()

    def __post_init__(self) -> None:
        # The routing metric indexes the board by link id directly.
        if self.links:
            self.board.track(max(self.links))

    def dynamic_delay(
        self,
        record: RouteRecord,
        viewer_gpu: int,
        *,
        exact: bool = False,
        terms: "list[float] | None" = None,
        stale_reads: "list[float] | None" = None,
    ) -> float:
        """``D_R`` of Eq. 4 over ``record`` as GPU ``viewer_gpu`` perceives it.

        The one queue-view rule (§4.2.2): a GPU knows its own outgoing
        links exactly — the channel's :meth:`LinkChannel.queue_delay`
        expression — and every other link only through the last
        broadcast plus its broadcast fault penalty.  ``exact=True``
        reads every link exactly (the centralized baseline's
        privilege).  ``terms``, when given, receives each link's
        ``queue + latency`` term in route order; ``stale_reads``, when
        given, receives how stale each remote read was (``|actual -
        broadcast|`` queue delay, seconds), in route order.
        """
        now = self.engine.now
        channels = self.links
        board = self.board
        published = board.visible_clear_at
        penalties = board.visible_penalty
        delay = 0.0
        # ``x if x > 0.0 else 0.0`` is ``max(0.0, x)`` without the
        # builtin call: the same value, signed zeros included.
        for link_id, latency, owner in record.hops:
            if exact or owner == viewer_gpu:
                channel = channels[link_id]
                queue = channel._free_at - now
                queue = (queue if queue > 0.0 else 0.0) + channel.committed_load
                arbiter = channel.arbiter
                if arbiter is not None:
                    queue += arbiter.queued_service
                queue += channel.fault_penalty
            else:
                queue = published[link_id] - now
                queue = (queue if queue > 0.0 else 0.0) + penalties[link_id]
                if stale_reads is not None:
                    actual = channels[link_id].queue_delay()
                    stale_reads.append(abs(actual - queue))
            if terms is not None:
                terms.append(queue + latency)
            delay += queue + latency
        return delay


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """One routing decision, as a policy reports it to the recorders
    (:meth:`~repro.sim.recorder.Recorder.record_decision`).

    Routes are the enumerator's interned :class:`Route` objects.  The
    record is what the decision audit (``repro.obs.analyze.regret``)
    replays against the realized link timelines.
    """

    time: float
    src: int
    dst: int
    #: Name of the deciding policy.
    policy: str
    chosen: Route
    #: The candidate routes the policy could have picked, in its order.
    routes: tuple[Route, ...]
    #: The policy's own cost per candidate when it scored them.
    estimates: "list[float] | None"
    batch_bytes: int
    packet_bytes: int
    #: Mean ``|actual - broadcast|`` queue delay over the chosen
    #: route's remote links: how wrong the decider's view was, seconds.
    staleness: float
    #: The Eq. 2 terms (``T_R``, ``D_R``, ``arm``) of a scored choice;
    #: empty otherwise.
    extra: dict
    #: How stale each broadcast read while scoring was, in read order
    #: (:meth:`RoutingContext.dynamic_delay`); ``None`` when the policy
    #: read no broadcast view (unscored or exact).
    stale_reads: "list[float] | None" = None


class RoutingPolicy(abc.ABC):
    """Chooses a route per batch; optionally charges per-batch overhead."""

    #: Human-readable policy name, used in reports and figures.
    name: str = "abstract"

    @abc.abstractmethod
    def choose_route(
        self,
        context: RoutingContext,
        src: int,
        dst: int,
        batch_bytes: int,
        packet_bytes: int,
    ) -> Route:
        """Pick the route for one batch of packets from ``src`` to ``dst``."""

    def batch_overhead(self, context: RoutingContext) -> float:
        """Extra seconds charged before each batch (e.g. global sync)."""
        return 0.0

    def emit_decision(
        self,
        context: RoutingContext,
        src: int,
        dst: int,
        chosen: Route,
        *,
        batch_bytes: int,
        packet_bytes: int,
        scored: "list[tuple[float, Route]] | None" = None,
        stale_reads: "list[float] | None" = None,
    ) -> None:
        """Report one decision to every recorder as a :class:`RouteDecision`.

        Every policy calls this (not just the adaptive one), so the
        decision audit can compare policies on equal footing.  The
        record carries the *candidate route set* the policy could have
        picked — with the policy's own ARM estimates when it ``scored``
        them, and then the Eq. 2 terms of the chosen route — plus the
        broadcast-board staleness over the chosen route's remote links,
        enabling counterfactual replay against the realized link
        timelines (``repro.obs.analyze.regret``).
        """
        extra = {}
        if scored is not None:
            routes = tuple(route for _, route in scored)
            estimates = [score for score, _ in scored]
            arm = estimates[routes.index(chosen)]
            transmission = context.enumerator.cache.record(
                chosen
            ).transmission_time(packet_bytes)
            extra = dict(T_R=transmission, D_R=arm - transmission, arm=arm)
        else:
            try:
                routes = context.enumerator.routes(src, dst)
            except UnroutableError:
                # DirectPolicy can still report its (doomed) direct pick
                # while the pair has no surviving enumerable route.
                routes = (chosen,)
            estimates = None
        decision = RouteDecision(
            time=context.engine.now,
            src=src,
            dst=dst,
            policy=self.name,
            chosen=chosen,
            routes=routes,
            estimates=estimates,
            batch_bytes=batch_bytes,
            packet_bytes=packet_bytes,
            staleness=self._view_error(context, src, chosen),
            extra=extra,
            stale_reads=stale_reads,
        )
        for recorder in context.recorders:
            recorder.record_decision(decision)

    @staticmethod
    def _view_error(
        context: RoutingContext, viewer_gpu: int, route: Route
    ) -> float:
        """Mean |actual - published| queue delay over the route's
        remote links — how wrong the decider's view was, in seconds."""
        reads: list[float] = []
        context.dynamic_delay(
            context.enumerator.cache.record(route), viewer_gpu, stale_reads=reads
        )
        # A left-to-right sum: ``sum()`` compensates on Python 3.12+.
        error = 0.0
        for read in reads:
            error += read
        return error / len(reads) if reads else 0.0
