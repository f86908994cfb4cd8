"""MG-Join's adaptive routing metric and policy (paper §4.2.2).

For every candidate route ``R`` and packet ``P`` the policy evaluates

    ARM(R, P) = T_R + D_R                                   (Eq. 2)
    T_R       = ||P|| / B_E(||P||)   over the bottleneck link (Eq. 3)
    D_R       = Σ_i (Q_i + L_i)      over the route's links   (Eq. 4)

and picks the route with the smallest ARM.  ``Q_i`` is the *perceived*
queueing delay: exact for the deciding GPU's own links, last-broadcast
for everybody else's — the policy never synchronizes on the decision
path.  Decisions are per batch (up to 8 packets sharing a route), and a
packet's route is fixed at the source, so no in-flight re-ordering or
circular routes can occur.
"""

from __future__ import annotations

from repro.routing.base import RoutingContext, RoutingPolicy
from repro.topology.routes import Route


def arm_value(
    context: RoutingContext,
    route: Route,
    packet_bytes: int,
    viewer_gpu: int | None = None,
    exact: bool = False,
    stale_reads: "list[float] | None" = None,
) -> float:
    """Compute ARM(R, P) for one route as seen by ``viewer_gpu``.

    With ``exact=True`` the ground-truth queue delays are used instead
    of the broadcast view (the centralized baseline's privilege).
    ``stale_reads``, when given, receives how stale each broadcast read
    was (:meth:`RoutingContext.dynamic_delay`).

    The static parts — the link hops and ``T_R`` — come from the
    route's :class:`repro.topology.routes.RouteRecord`; only the
    dynamic queue terms are walked per decision, by
    :meth:`RoutingContext.dynamic_delay` in route order.
    """
    record = context.enumerator.cache.record(route)
    transmission = record.transmission_time(packet_bytes)
    dynamic_delay = context.dynamic_delay(
        record,
        viewer_gpu if viewer_gpu is not None else route.src,
        exact=exact,
        stale_reads=stale_reads,
    )
    return transmission + dynamic_delay


class AdaptiveArmPolicy(RoutingPolicy):
    """Per-batch, source-decided, congestion-aware route selection.

    Routes whose ARM is within ``spread_tolerance`` of the minimum are
    considered equivalent and used in rotation, so consecutive batches
    of one flow spread over equally good routes instead of herding onto
    a single one until its queue-delay broadcast catches up.
    """

    name = "mg-join"

    def __init__(
        self, exact_state: bool = False, spread_tolerance: float = 0.0
    ) -> None:
        #: When True the policy reads ground-truth link state (used by
        #: the centralized baseline and by what-if analyses).
        self.exact_state = exact_state
        if spread_tolerance < 0:
            raise ValueError("spread_tolerance must be non-negative")
        self.spread_tolerance = spread_tolerance
        self._rotation: dict[tuple[int, int], int] = {}

    def choose_route(
        self,
        context: RoutingContext,
        src: int,
        dst: int,
        batch_bytes: int,
        packet_bytes: int,
    ) -> Route:
        recorders = context.recorders
        stale_reads = [] if recorders and not self.exact_state else None
        scored = [
            (
                arm_value(
                    context,
                    route,
                    packet_bytes,
                    viewer_gpu=src,
                    exact=self.exact_state,
                    stale_reads=stale_reads,
                ),
                route,
            )
            for route in context.enumerator.routes(src, dst)
        ]
        best_arm = min(score for score, _ in scored)
        cutoff = best_arm * (1.0 + self.spread_tolerance) + 1e-15
        near_best = [route for score, route in scored if score <= cutoff]
        turn = self._rotation.get((src, dst), 0)
        self._rotation[(src, dst)] = turn + 1
        chosen = near_best[turn % len(near_best)]
        if recorders:
            self.emit_decision(
                context,
                src,
                dst,
                chosen,
                batch_bytes=batch_bytes,
                packet_bytes=packet_bytes,
                scored=scored,
                stale_reads=stale_reads,
            )
        return chosen
