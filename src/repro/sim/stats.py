"""Measurement containers for shuffle simulations.

Includes the bisection-utilization metric of Figure 8: utilization is
the rate of traffic that actually crossed the machine's minimum
balanced bisection, divided by that bisection's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.integrity import IntegrityStats
from repro.topology.links import LinkSpec
from repro.topology.machine import MachineTopology
from repro.topology.nodes import Node, gpu


@dataclass
class LinkStats:
    """Per-link accounting snapshot after a shuffle run."""

    spec: LinkSpec
    bytes_sent: int
    busy_time: float
    transfers: int

    def utilization(self, elapsed: float) -> float:
        """Fraction of the run this link spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


@dataclass(frozen=True)
class BisectionCut:
    """The minimum balanced bipartition of a GPU subset."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    #: Max-flow capacity in each direction, bytes/s.
    capacity_ab: float
    capacity_ba: float
    #: Links whose endpoints straddle the cut, keyed by direction.
    crossing_ab: tuple[int, ...]
    crossing_ba: tuple[int, ...]

    @property
    def total_capacity(self) -> float:
        return self.capacity_ab + self.capacity_ba


def bisection_cut(
    machine: MachineTopology, gpu_ids: tuple[int, ...] | None = None
) -> BisectionCut:
    """Find the minimum balanced bisection and its crossing links.

    The search is :meth:`MachineTopology.min_bisection`; this adds the
    reverse-direction capacity and the links straddling the cut.
    Memoized per machine instance, so every shuffle report on the same
    machine/subset shares one cut.
    """
    ids = tuple(sorted(gpu_ids if gpu_ids is not None else machine.gpu_ids))
    cache: dict = machine._bisection_cut_cache
    cached = cache.get(ids)
    if cached is not None:
        return cached
    capacity_ab, side_a, side_b = machine.min_bisection(ids)
    capacity_ba = machine._cut_capacity(side_b, side_a)
    sides = _assign_node_sides(machine, side_a, side_b)
    crossing_ab: list[int] = []
    crossing_ba: list[int] = []
    for link in machine.links:
        src_side = sides.get(link.src)
        dst_side = sides.get(link.dst)
        if src_side is None or dst_side is None or src_side == dst_side:
            continue
        (crossing_ab if src_side == "a" else crossing_ba).append(link.link_id)
    cut = BisectionCut(
        side_a=side_a,
        side_b=side_b,
        capacity_ab=capacity_ab,
        capacity_ba=capacity_ba,
        crossing_ab=tuple(crossing_ab),
        crossing_ba=tuple(crossing_ba),
    )
    cache[ids] = cut
    return cut


def _assign_node_sides(
    machine: MachineTopology, side_a: tuple[int, ...], side_b: tuple[int, ...]
) -> dict[Node, str]:
    """Place switches and CPUs on the side holding most of their GPUs."""
    sides: dict[Node, str] = {}
    for gpu_id in side_a:
        sides[gpu(gpu_id)] = "a"
    for gpu_id in side_b:
        sides[gpu(gpu_id)] = "b"
    # Switches first (adjacent to GPUs), then CPUs (adjacent to switches).
    for _ in range(2):
        for node in machine.nodes:
            if node in sides:
                continue
            votes = {"a": 0, "b": 0}
            for link in machine.outgoing_links(node):
                neighbor_side = sides.get(link.dst)
                if neighbor_side is not None:
                    votes[neighbor_side] += 1
            if votes["a"] or votes["b"]:
                sides[node] = "a" if votes["a"] >= votes["b"] else "b"
    return sides


@dataclass
class RecoveryStats:
    """Crash-recovery accounting for one shuffle run.

    Produced by :class:`~repro.sim.recovery.CrashCoordinator` when at
    least one GPU crashed with join-level recovery enabled; absent
    (``None`` on the report) otherwise, including on every healthy run.
    """

    #: GPUs that crashed, and the engine times they crashed / were
    #: declared dead by the heartbeat monitor.
    crashed_gpus: tuple[int, ...]
    crashed_at: dict[int, float]
    declared_at: dict[int, float]
    #: Declaration minus crash time per dead GPU, seconds.
    detection_latency: dict[int, float]
    #: Bytes re-shuffled to the new owners of lost partitions.
    reshuffled_bytes: int = 0
    #: Bytes re-sent through the host pipe (dead-source remainders and
    #: in-flight losses whose source died before re-injection).
    host_resent_bytes: int = 0
    #: Re-shuffle bytes served from the dead GPU's host checkpoint
    #: instead of the original sources.
    checkpoint_restored_bytes: int = 0
    #: Received partition data discarded on crashed GPUs.
    bytes_discarded: int = 0
    #: Un-injected flow bytes to dead GPUs cancelled at their sources.
    bytes_cancelled: int = 0
    #: In-flight/queued bytes to dead GPUs dropped (reassigned instead).
    bytes_abandoned: int = 0
    #: Wall-clock from the first crash to the end of the shuffle.
    recovery_elapsed: float = 0.0

    @property
    def max_detection_latency(self) -> float:
        return max(self.detection_latency.values(), default=0.0)

    def recovery_share(self, elapsed: float) -> float:
        """Fraction of the shuffle spent in degraded (recovery) mode."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.recovery_elapsed / elapsed)

    def render(self, elapsed: float) -> list[str]:
        """The ``join-level recovery`` section of ``repro analyze``;
        ``elapsed`` is the shuffle's simulated time."""
        dead = ", ".join(f"gpu{g}" for g in self.crashed_gpus)
        return [
            "join-level recovery:",
            f"  dead GPUs          : {dead}",
            f"  detection latency  : {self.max_detection_latency * 1e3:.3f} ms"
            f" (max over {len(self.crashed_gpus)} crash(es))",
            f"  re-shuffled        : {self.reshuffled_bytes / 1e6:.2f} MB",
            f"  host re-sent       : {self.host_resent_bytes / 1e6:.2f} MB",
            f"  checkpoint restored: {self.checkpoint_restored_bytes / 1e6:.2f} MB",
            f"  recovery elapsed   : {self.recovery_elapsed * 1e3:.3f} ms"
            f" ({self.recovery_share(elapsed) * 100:.1f}% of the shuffle)",
        ]


@dataclass
class ShuffleReport:
    """Everything a shuffle run measured.

    ``payload_bytes`` counts each flow byte once regardless of how many
    relay hops it took; throughput figures therefore compare fairly
    between direct and multi-hop routing.

    A served query's report comes from the same builder, but its
    link-level fields (``wire_bytes``, ``link_stats``,
    ``board_broadcast_count`` and the bisection figures read from
    them) and ``faults_injected`` describe the fabric every tenant
    shares; the flow, packet, recovery and integrity fields are the
    query's own.
    """

    policy_name: str
    num_gpus: int
    elapsed: float
    payload_bytes: int
    delivered_bytes: int
    wire_bytes: int
    packets_delivered: int
    hop_count_total: int
    link_stats: dict[int, LinkStats]
    cut: BisectionCut
    buffer_sync_count: int
    board_broadcast_count: int
    sync_time_total: float = 0.0
    consume_finish_time: float = 0.0
    per_gpu_delivered: dict[int, int] = field(default_factory=dict)
    #: Fault-injection / recovery accounting (zero on healthy runs).
    faults_injected: int = 0
    packet_retries: int = 0
    packet_reroutes: int = 0
    packet_fallbacks: int = 0
    packets_recovered: int = 0
    #: Crash-recovery accounting; ``None`` unless a GPU crashed with
    #: join-level recovery enabled.
    recovery: RecoveryStats | None = None
    #: Verified-transport accounting; ``None`` unless the integrity
    #: layer was active (verification on, or corruption faults planned).
    integrity: IntegrityStats | None = None

    @property
    def throughput(self) -> float:
        """Aggregate shuffle throughput in bytes/s (Figure 6/7 metric)."""
        if self.elapsed <= 0:
            return 0.0
        return self.payload_bytes / self.elapsed

    @property
    def average_hops(self) -> float:
        """Mean GPU-level hops per delivered packet."""
        if self.packets_delivered == 0:
            return 0.0
        return self.hop_count_total / self.packets_delivered

    @property
    def bisection_utilization(self) -> float:
        """Figure 8 metric: achieved cross-bisection rate / capacity."""
        if self.elapsed <= 0:
            return 0.0
        crossing = set(self.cut.crossing_ab) | set(self.cut.crossing_ba)
        crossed_bytes = sum(
            stats.bytes_sent
            for link_id, stats in self.link_stats.items()
            if link_id in crossing
        )
        capacity = self.cut.total_capacity
        if capacity <= 0:
            return 0.0
        return min(1.0, crossed_bytes / self.elapsed / capacity)

    def _directional_utilization(
        self, crossing: tuple[int, ...], capacity: float
    ) -> float:
        if self.elapsed <= 0 or capacity <= 0:
            return 0.0
        crossing_ids = set(crossing)
        crossed_bytes = sum(
            stats.bytes_sent
            for link_id, stats in self.link_stats.items()
            if link_id in crossing_ids
        )
        return min(1.0, crossed_bytes / self.elapsed / capacity)

    @property
    def bisection_utilization_ab(self) -> float:
        """Figure 8 metric restricted to the a->b crossing direction."""
        return self._directional_utilization(
            self.cut.crossing_ab, self.cut.capacity_ab
        )

    @property
    def bisection_utilization_ba(self) -> float:
        """Figure 8 metric restricted to the b->a crossing direction."""
        return self._directional_utilization(
            self.cut.crossing_ba, self.cut.capacity_ba
        )
