"""Routing policy interface and shared context.

A policy sees a :class:`RoutingContext` — the machine, the candidate
route enumerator, live link channels and the (delayed) link-state board
— and must pick a route for each batch of packets.  Policies are
deliberately *per-source* decision makers: the paper fixes each packet's
route at the source GPU to avoid cross-GPU synchronization (§4.2.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.engine import Engine
from repro.sim.linksim import LinkChannel, LinkStateBoard
from repro.topology.machine import MachineTopology
from repro.topology.routes import (
    Route,
    RouteEnumerator,
    RouteRecord,
    UnroutableError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Histogram, Observer


@dataclass
class RoutingContext:
    """Everything a routing policy may consult when choosing a route."""

    engine: Engine
    machine: MachineTopology
    enumerator: RouteEnumerator
    links: dict[int, LinkChannel]
    board: LinkStateBoard
    num_gpus: int
    #: Observability sink for route decisions and state staleness;
    #: ``None`` = off (policies must guard on it).
    observer: "Observer | None" = None
    #: Activity recorders (the fabric's
    #: :attr:`~repro.sim.fabric.Fabric.recorders`); every routed batch
    #: and every delivered packet is reported to each of them.
    recorders: tuple = ()

    #: ``board.staleness_seconds`` histogram, fetched on first use.
    _staleness: "Histogram | None" = field(default=None, init=False, repr=False)

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
        observe: bool = True,
        terms: "list[float] | None" = None,
    ) -> float:
        """``D_R`` of Eq. 4 over ``record`` as GPU ``viewer_gpu`` perceives it.

        The one queue-view rule (§4.2.2): a GPU knows its own outgoing
        links exactly — the channel's :meth:`LinkChannel.queue_delay`
        expression — and every other link only through the last
        broadcast plus its broadcast fault penalty.  ``exact=True``
        reads every link exactly (the centralized baseline's
        privilege).  With an observer and ``observe`` set, each remote
        read records how stale the broadcast was.  ``terms``, when
        given, receives each link's ``queue + latency`` term in route
        order.
        """
        now = self.engine.now
        channels = self.links
        board = self.board
        published = board.visible_clear_at
        penalties = board.visible_penalty
        staleness = None
        if observe and not exact and self.observer is not None:
            staleness = self._staleness
            if staleness is None:
                staleness = self._staleness = self.observer.metrics.histogram(
                    "board.staleness_seconds"
                )
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
                if staleness is not None:
                    # How stale is the broadcast view this decision used?
                    actual = channels[link_id].queue_delay()
                    staleness.observe(abs(actual - queue))
            if terms is not None:
                terms.append(queue + latency)
            delay += queue + latency
        return delay


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
        **extra,
    ) -> None:
        """Record one auditable ``arm.decision`` instant.

        Every policy calls this (not just the adaptive one), so the
        decision audit can compare policies on equal footing.  The
        instant carries the *candidate route set* the policy could have
        picked — with the policy's own cost estimates when it scored
        them — plus the broadcast-board staleness over the chosen
        route's remote links, enabling counterfactual replay against
        the realized link timelines (``repro.obs.analyze.regret``).
        """
        observer = context.observer
        if observer is None:
            return
        if scored is not None:
            routes = [str(route) for _, route in scored]
            estimates = [score for score, _ in scored]
        else:
            try:
                candidates = context.enumerator.routes(src, dst)
            except UnroutableError:
                # DirectPolicy can still emit its (doomed) direct pick
                # while the pair has no surviving enumerable route.
                candidates = [chosen]
            routes = [str(route) for route in candidates]
            estimates = None
        attrs = dict(
            src=src,
            dst=dst,
            policy=self.name,
            route=str(chosen),
            routes=routes,
            candidates=len(routes),
            batch_bytes=batch_bytes,
            packet_bytes=packet_bytes,
            direct=chosen.is_direct,
            staleness=self._board_staleness(context, src, chosen),
            **extra,
        )
        if estimates is not None:
            attrs["est"] = estimates
        observer.instant(
            "arm.decision",
            context.engine.now,
            track=f"gpu{src}",
            category="route",
            **attrs,
        )
        observer.metrics.counter("route.decisions", src=src, dst=dst).inc()
        if not chosen.is_direct:
            observer.metrics.counter("route.multi_hop_decisions").inc()

    @staticmethod
    def _board_staleness(
        context: RoutingContext, viewer_gpu: int, route: Route
    ) -> float:
        """Mean |actual - published| queue delay over the route's
        remote links — how wrong the decider's view was, in seconds."""
        error = 0.0
        remote = 0
        for link_id, _, owner in context.enumerator.cache.record(route).hops:
            if owner == viewer_gpu:
                continue
            remote += 1
            actual = context.links[link_id].queue_delay()
            published = context.board.published_queue_delay(link_id)
            error += abs(actual - published)
        return error / remote if remote else 0.0
