"""The centralized routing baseline of Figure 10 (MGJ-Baseline).

MGJ-Baseline makes every routing decision in a central process with a
perfectly fresh, global view of all link queues — but obtaining that
view requires all GPUs to synchronize before *every batch* of packets.
The result the paper reports: the privileged view buys up to ~3% better
raw transfer time, while the synchronization cost makes the overall
data-distribution step up to 1.5x slower than MG-Join's decentralized
adaptive routing.
"""

from __future__ import annotations

from repro.routing.adaptive import AdaptiveArmPolicy, arm_value
from repro.routing.base import RoutingContext
from repro.topology.routes import Route


class CentralizedPolicy(AdaptiveArmPolicy):
    """Globally synchronized ARM routing with exact link state."""

    name = "mgj-baseline"

    def __init__(self, per_gpu_sync_latency: float = 20e-6) -> None:
        super().__init__(exact_state=True)
        if per_gpu_sync_latency < 0:
            raise ValueError("per_gpu_sync_latency must be non-negative")
        self.per_gpu_sync_latency = per_gpu_sync_latency

    def batch_overhead(self, context: RoutingContext) -> float:
        """A barrier across all participating GPUs, paid per batch.

        Each of the other GPUs must be contacted and answer before the
        central decision is distributed (one round trip per peer, as the
        GPUs lack dedicated routing hardware, §4.2.2).
        """
        return 2.0 * self.per_gpu_sync_latency * max(0, context.num_gpus - 1)

    def choose_route(
        self,
        context: RoutingContext,
        src: int,
        dst: int,
        batch_bytes: int,
        packet_bytes: int,
    ) -> Route:
        best_route: Route | None = None
        best_arm = float("inf")
        scored: list[tuple[float, Route]] = []
        for route in context.enumerator.routes(src, dst):
            arm = arm_value(context, route, packet_bytes, exact=True)
            scored.append((arm, route))
            if arm < best_arm - 1e-15:
                best_arm = arm
                best_route = route
        assert best_route is not None
        if context.recorders:
            self.emit_decision(
                context,
                src,
                dst,
                best_route,
                batch_bytes=batch_bytes,
                packet_bytes=packet_bytes,
                scored=scored,
            )
        return best_route
