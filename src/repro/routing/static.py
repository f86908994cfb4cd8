"""Static single-metric routing policies (paper §4.2.1).

These are the lightweight heuristics the networking community uses when
the multi-commodity-flow optimum is out of reach:

* **bandwidth** — the route whose bottleneck link has the highest peak
  bandwidth (the "shortest widest path"),
* **hop count** — the route crossing the fewest physical links,
* **latency** — the route with the lowest total static latency.

All three are *static*: they never look at current congestion, which is
exactly the weakness Figures 5, 7 and 9 expose.  ``DirectPolicy`` is the
degenerate single-hop policy used by existing systems (DPRJ, NCCL).
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from repro.routing.base import RoutingContext, RoutingPolicy
from repro.topology.routes import (
    Route,
    route_link_count,
    route_min_bandwidth,
    route_static_latency,
)


class _StaticPolicy(RoutingPolicy):
    """Common machinery: rank candidate routes by a static key.

    Static rankings never change during a run, so the winning route per
    (src, dst) pair is computed once and cached.
    """

    def choose_route(
        self,
        context: RoutingContext,
        src: int,
        dst: int,
        batch_bytes: int,
        packet_bytes: int,
    ) -> Route:
        chosen = self._pick(context, src, dst)
        if context.recorders:
            self.emit_decision(
                context,
                src,
                dst,
                chosen,
                batch_bytes=batch_bytes,
                packet_bytes=packet_bytes,
            )
        return chosen

    def _pick(self, context: RoutingContext, src: int, dst: int) -> Route:
        # Memoized per enumerator via a weak key: a sweep that builds a
        # machine (and enumerator) per configuration must not have its
        # dead topologies pinned by a long-lived policy object — the
        # trap a module-level ``lru_cache`` on this method used to be.
        enumerator = context.enumerator
        memo: WeakKeyDictionary | None = self.__dict__.get("_route_picks")
        if memo is None:
            memo = self.__dict__["_route_picks"] = WeakKeyDictionary()
        picks = memo.get(enumerator)
        if picks is None:
            picks = memo[enumerator] = {}
        # The enumerator version keys the cache so a link failure (which
        # changes the candidate set) invalidates previously cached picks.
        key = (src, dst, enumerator.version)
        chosen = picks.get(key)
        if chosen is None:
            machine = context.machine
            chosen = picks[key] = min(
                enumerator.routes(src, dst),
                key=lambda route: self._rank(machine, route),
            )
        return chosen

    def _rank(self, machine, route: Route):
        raise NotImplementedError


class DirectPolicy(_StaticPolicy):
    """Always take the direct (single-hop) route — what DPRJ does."""

    name = "direct"

    def _pick(self, context, src, dst) -> Route:
        return context.enumerator.direct_route(src, dst)


class BandwidthPolicy(_StaticPolicy):
    """Maximize bottleneck bandwidth; break ties with fewer links."""

    name = "bandwidth"

    def _rank(self, machine, route):
        return (
            -route_min_bandwidth(machine, route),
            route_link_count(machine, route),
            route.gpus,
        )


class HopCountPolicy(_StaticPolicy):
    """Minimize physical links crossed; ignore their speed entirely."""

    name = "hop-count"

    def _rank(self, machine, route):
        return (route_link_count(machine, route), route.gpus)


class LatencyPolicy(_StaticPolicy):
    """Minimize total static link latency."""

    name = "latency"

    def _rank(self, machine, route):
        return (route_static_latency(machine, route), route.gpus)
