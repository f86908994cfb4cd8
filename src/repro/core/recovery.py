"""Join-level crash recovery (the recovery coordinator).

PR 3 made the *shuffle* survive faults; this module makes the *join*
survive the loss of whole GPUs.  The key enabler is the paper's
replicated global histograms: every GPU (and therefore the
coordinator) already knows exactly how many tuples of every radix
partition live on every GPU, so after a crash the ownership of the
dead GPU's partitions can be recomputed for the survivors — using the
same migration / selective-broadcast cost model as the original
assignment — and only the lost partitions re-shuffled from their
source GPUs (sources re-read from the original, host-resident
relations; no full restart).

Split of responsibilities:

* :class:`JoinRecoveryCoordinator` (here) owns the *join-level* state:
  histograms, the live :class:`PartitionAssignment`, and the cost
  model.  Its :meth:`on_gpu_dead` is called by the sim-level
  :class:`~repro.sim.recovery.CrashCoordinator` when the heartbeat
  monitor declares a GPU dead, and returns the re-shuffle flow matrix.
* The sim-level coordinator owns clocks, packets and byte conservation.

Because the functional data path (:func:`~repro.core.global_partition.
execute_distribution`) runs once against the *final* assignment, the
faulted join's match set is byte-identical to the healthy run's — the
headline guarantee asserted by :func:`canonical_match_digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.assignment import (
    DEFAULT_PROCESS_COST_PER_TUPLE,
    NO_BROADCAST,
    PartitionAssignment,
    _pick_owner,
    pairwise_tuple_cost,
)
from repro.sim.shuffle import FlowMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compression import CompressionModel
    from repro.core.histogram import HistogramSet
    from repro.faults.plan import FaultPlan
    from repro.sim.stats import RecoveryStats
    from repro.topology.machine import MachineTopology


class RecoveryError(RuntimeError):
    """The join cannot be recovered (e.g. no survivors remain)."""


@dataclass(frozen=True)
class RecoveryReport:
    """Join-level recovery summary attached to a :class:`JoinResult`."""

    dead_gpus: tuple[int, ...]
    survivors: tuple[int, ...]
    #: Declaration minus crash time per dead GPU, seconds.
    detection_latency: dict[int, float]
    partitions_reassigned: int
    reshuffled_bytes: int
    host_resent_bytes: int
    checkpoint_restored_bytes: int
    bytes_discarded: int
    #: Wall-clock from the first crash to the end of the shuffle.
    recovery_elapsed: float
    #: Fraction of the distribution step spent in degraded mode.
    recovery_time_share: float

    @property
    def max_detection_latency(self) -> float:
        return max(self.detection_latency.values(), default=0.0)

    def summary_lines(self) -> list[str]:
        dead = ", ".join(f"gpu{g}" for g in self.dead_gpus)
        return [
            f"dead GPUs            : {dead}",
            f"survivors            : {len(self.survivors)}",
            f"detection latency    : {self.max_detection_latency * 1e3:.3f} ms (max)",
            f"partitions reassigned: {self.partitions_reassigned}",
            f"re-shuffled          : {self.reshuffled_bytes / 1e6:.1f} MB",
            f"host re-sent         : {self.host_resent_bytes / 1e6:.1f} MB",
            f"checkpoint restored  : {self.checkpoint_restored_bytes / 1e6:.1f} MB",
            f"discarded at crash   : {self.bytes_discarded / 1e6:.1f} MB",
            f"recovery time share  : {self.recovery_time_share * 100:.1f}%",
        ]


def ensure_recoverable(plan: "FaultPlan", gpu_ids: tuple[int, ...]) -> None:
    """Reject plans recovery cannot bridge (no survivors would remain).

    Raises :class:`RecoveryError` when the plan crashes every
    participating GPU: with zero survivors there is nowhere to reassign
    partitions to, not even via host staging.
    """
    from repro.faults.plan import FaultKind

    crashes = sorted(
        {
            event.gpu
            for event in plan.events
            if event.kind is FaultKind.GPU_CRASH and event.gpu is not None
        }
    )
    survivors = sorted(set(gpu_ids) - set(crashes))
    if crashes and not survivors:
        raise RecoveryError(
            f"fault plan {plan.name!r} crashes every participating GPU "
            f"({', '.join(f'gpu{g}' for g in crashes)}); no survivors "
            f"remain to reassign partitions to, so the join cannot be "
            f"recovered even via host staging"
        )


def canonical_match_digest(
    r_ids: np.ndarray, s_ids: np.ndarray
) -> str:
    """Order-independent digest of a materialized match set.

    The (r_id, s_id) pairs are lexicographically sorted before hashing,
    so two runs producing the same *set* of matches — regardless of
    which GPU produced which pair, or in what order — get the same
    digest.  This is the byte-identity check between healthy and
    recovered joins.  The hashed payload is every sorted ``r_id``
    followed by every sorted ``s_id``, each as ``uint64``.

    Raises ``ValueError`` unless both arrays hold unsigned integers of
    at most 32 bits (tuple ids are ``uint32``) and have equal lengths:
    each pair is sorted as one packed 64-bit key.
    """
    for name, ids in (("r_ids", r_ids), ("s_ids", s_ids)):
        if ids.dtype.kind != "u" or ids.dtype.itemsize > 4:
            raise ValueError(
                f"{name} must be unsigned integers of at most 32 bits, "
                f"got {ids.dtype}"
            )
    if len(r_ids) != len(s_ids):
        raise ValueError(
            f"r_ids and s_ids differ in length: {len(r_ids)} != {len(s_ids)}"
        )
    keys = r_ids.astype(np.uint64) << np.uint64(32)
    keys |= s_ids
    keys.sort()
    digest = hashlib.sha256()
    digest.update(keys >> np.uint64(32))
    digest.update(keys & np.uint64(0xFFFFFFFF))
    return digest.hexdigest()


class JoinRecoveryCoordinator:
    """Recomputes partition ownership for survivors after GPU crashes.

    Holds the replicated histograms and the live assignment.  Each
    :meth:`on_gpu_dead` call (one per declared crash, possibly several
    in one run) demotes every partition the dead GPU owned — including
    its share of selective-broadcast partitions — to a single-owner
    migration onto the cheapest, least-loaded survivor, using the same
    per-tuple route cost matrix and load-balance rule as
    :func:`~repro.core.assignment.assign_partitions`.  It returns the
    re-shuffle :class:`FlowMatrix` (the bytes each source must re-send
    to the new owners) and exposes :attr:`final_assignment` for the
    functional data path.
    """

    def __init__(
        self,
        histograms: "HistogramSet",
        assignment: PartitionAssignment,
        machine: "MachineTopology",
        compression: "CompressionModel",
        logical_scale: int,
        *,
        tuple_bytes: int = 8,
        process_cost_per_tuple: float = DEFAULT_PROCESS_COST_PER_TUPLE,
    ) -> None:
        self.histograms = histograms
        self.machine = machine
        self.compression = compression
        self.logical_scale = logical_scale
        self.tuple_bytes = tuple_bytes
        self.process_cost_per_tuple = process_cost_per_tuple
        self.gpu_ids = assignment.gpu_ids
        self._position = {g: pos for pos, g in enumerate(self.gpu_ids)}
        # Work on a copy: the original assignment object stays valid as
        # "what the healthy run decided".
        self._owners = list(assignment.owners)
        self._broadcast_side = assignment.broadcast_side.copy()
        self._move_cost = assignment.move_cost
        self._dead: list[int] = []
        self.partitions_reassigned = 0
        self.reshuffled_bytes = 0
        r_counts, s_counts = histograms.stacked()
        self._both = (r_counts + s_counts).astype(np.float64)
        self._cost = pairwise_tuple_cost(machine, self.gpu_ids, tuple_bytes)
        #: migrate_cost[o, p]: cost of moving partition p's tuples to
        #: owner position o (same matrix as assign_partitions).
        self._migrate_cost = self._cost.T @ self._both

    # ------------------------------------------------------------------

    @property
    def dead_gpus(self) -> tuple[int, ...]:
        return tuple(self._dead)

    def survivors(self) -> tuple[int, ...]:
        return tuple(g for g in self.gpu_ids if g not in self._dead)

    @property
    def final_assignment(self) -> PartitionAssignment:
        """The assignment after every reassignment so far.

        Keeps the original ``gpu_ids`` (positions stay comparable); no
        partition is owned by a dead position anymore.
        """
        return PartitionAssignment(
            gpu_ids=self.gpu_ids,
            owners=list(self._owners),
            broadcast_side=self._broadcast_side.copy(),
            move_cost=self._move_cost,
        )

    # ------------------------------------------------------------------

    def on_gpu_dead(
        self, dead_gpu: int, survivors: tuple[int, ...] | None = None
    ) -> FlowMatrix:
        """Reassign the dead GPU's partitions; return re-shuffle flows.

        ``survivors`` defaults to the participants not yet declared
        dead here; the sim coordinator passes its own view so the two
        layers can never disagree.
        """
        if dead_gpu not in self._position:
            raise RecoveryError(f"gpu{dead_gpu} is not a join participant")
        if dead_gpu in self._dead:
            return FlowMatrix()
        self._dead.append(dead_gpu)
        if survivors is None:
            survivors = self.survivors()
        survivor_positions = [
            self._position[g] for g in survivors if g not in self._dead
        ]
        if not survivor_positions:
            raise RecoveryError(
                f"gpu{dead_gpu} was the last live GPU of the join; no "
                f"survivors remain to reassign its partitions to"
            )
        dead_pos = self._position[dead_gpu]
        affected = [
            p
            for p, owner_positions in enumerate(self._owners)
            if dead_pos in owner_positions
        ]
        # Current load of each survivor position: tuples it owns under
        # the (already partially reassigned) assignment, excluding the
        # partitions about to move.
        load = [0.0] * len(self.gpu_ids)
        affected_set = set(affected)
        partition_sizes = self._both.sum(axis=0).tolist()
        for p, owner_positions in enumerate(self._owners):
            if p in affected_set or not owner_positions:
                continue
            share = partition_sizes[p] / len(owner_positions)
            for pos in owner_positions:
                load[pos] += share
        # Largest partitions first, like the original optimizer: the
        # load-balance term then spreads the heavy hitters.
        reshuffle_tuples: dict[tuple[int, int], int] = {}
        migrate_rows = self._migrate_cost.tolist()
        for p in sorted(affected, key=lambda p: -partition_sizes[p]):
            size = partition_sizes[p]
            new_pos = _pick_owner(
                migrate_rows,
                p,
                load,
                size,
                self.process_cost_per_tuple,
                survivor_positions,
            )
            load[new_pos] += size
            self._move_cost += migrate_rows[new_pos][p]
            self._owners[p] = (new_pos,)
            self._broadcast_side[p] = NO_BROADCAST
            self.partitions_reassigned += 1
            # The new owner re-collects the whole partition from the
            # original (host-resident) relations: every source's share,
            # both relations.  Its own share never crosses the fabric.
            new_owner = self.gpu_ids[new_pos]
            for src_pos, src in enumerate(self.gpu_ids):
                if src == new_owner:
                    continue
                tuples = int(self._both[src_pos, p]) * self.logical_scale
                if tuples:
                    key = (src, new_owner)
                    reshuffle_tuples[key] = reshuffle_tuples.get(key, 0) + tuples
        flows = FlowMatrix()
        for (src, dst), tuples in sorted(reshuffle_tuples.items()):
            flows.add(src, dst, self.compression.flow_bytes(tuples))
        self.reshuffled_bytes += flows.total_bytes
        return flows

    # ------------------------------------------------------------------

    def build_report(
        self,
        recovery_stats: "RecoveryStats | None",
        distribution_time: float = 0.0,
    ) -> RecoveryReport:
        """Combine join-level and sim-level recovery telemetry."""
        detection = (
            dict(recovery_stats.detection_latency)
            if recovery_stats is not None
            else {}
        )
        elapsed = (
            recovery_stats.recovery_elapsed if recovery_stats is not None else 0.0
        )
        share = (
            recovery_stats.recovery_share(distribution_time)
            if recovery_stats is not None
            else 0.0
        )
        return RecoveryReport(
            dead_gpus=tuple(self._dead),
            survivors=self.survivors(),
            detection_latency=detection,
            partitions_reassigned=self.partitions_reassigned,
            reshuffled_bytes=self.reshuffled_bytes,
            host_resent_bytes=(
                recovery_stats.host_resent_bytes if recovery_stats else 0
            ),
            checkpoint_restored_bytes=(
                recovery_stats.checkpoint_restored_bytes if recovery_stats else 0
            ),
            bytes_discarded=(
                recovery_stats.bytes_discarded if recovery_stats else 0
            ),
            recovery_elapsed=elapsed,
            recovery_time_share=share,
        )
