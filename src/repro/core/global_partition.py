"""Phase 2b: global partitioning and the data-distribution flow plan.

Two jobs, mirroring the paper's step 1 and step 3 of the global
partitioning phase:

* :func:`plan_flows` — turn histograms + partition assignment +
  compression model into the :class:`FlowMatrix` the shuffle simulator
  routes (sizes at *logical* scale).
* :func:`execute_distribution` — actually move the numpy tuples so the
  rest of the pipeline (local partitioning, probe) runs on real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import (
    BROADCAST_R,
    BROADCAST_S,
    NO_BROADCAST,
    PartitionAssignment,
)
from repro.core.compression import CompressionModel
from repro.core.histogram import HistogramSet, partition_of
from repro.core.local_partition import stable_bucket_order
from repro.core.relation import DistributedRelation, GpuShard
from repro.sim.shuffle import FlowMatrix


def plan_flows(
    histograms: HistogramSet,
    assignment: PartitionAssignment,
    compression: CompressionModel,
    logical_scale: int,
) -> FlowMatrix:
    """Bytes each GPU must push to each other GPU, at logical scale."""
    gpu_ids = histograms.gpu_ids
    r_counts, s_counts = histograms.stacked()
    owner_map = assignment.single_owner_map()
    flows = FlowMatrix()

    # Migrated partitions, vectorized per (source, owner) pair.
    both = r_counts + s_counts
    for src_pos, src in enumerate(gpu_ids):
        for dst_pos, dst in enumerate(gpu_ids):
            if src == dst:
                continue
            mask = owner_map == dst_pos
            tuples = int(both[src_pos, mask].sum()) * logical_scale
            if tuples:
                flows.add(src, dst, compression.flow_bytes(tuples))

    # Broadcast partitions: the moving relation goes to every owner.
    for p in np.nonzero(assignment.broadcast_side != NO_BROADCAST)[0]:
        moving = r_counts if assignment.broadcast_side[p] == BROADCAST_R else s_counts
        owner_positions = assignment.owners[int(p)]
        for src_pos, src in enumerate(gpu_ids):
            tuples = int(moving[src_pos, p]) * logical_scale
            if tuples == 0:
                continue
            for dst_pos in owner_positions:
                if dst_pos == src_pos:
                    continue
                flows.add(src, gpu_ids[dst_pos], compression.flow_bytes(tuples))
    return flows


@dataclass
class DistributedData:
    """Per-GPU tuples after the data-distribution step."""

    r: dict[int, GpuShard]
    s: dict[int, GpuShard]

    def received_tuples(self, gpu_id: int) -> int:
        return len(self.r[gpu_id]) + len(self.s[gpu_id])


def execute_distribution(
    r: DistributedRelation,
    s: DistributedRelation,
    histograms: HistogramSet,
    assignment: PartitionAssignment,
) -> DistributedData:
    """Physically redistribute the numpy tuples per the assignment."""
    gpu_ids = histograms.gpu_ids
    position = {gpu_id: pos for pos, gpu_id in enumerate(gpu_ids)}
    owner_map = assignment.single_owner_map()
    num_partitions = histograms.num_partitions

    received_r: dict[int, list[GpuShard]] = {g: [] for g in gpu_ids}
    received_s: dict[int, list[GpuShard]] = {g: [] for g in gpu_ids}

    broadcast_partitions = np.nonzero(assignment.broadcast_side != NO_BROADCAST)[0]
    broadcast_set = set(int(p) for p in broadcast_partitions)
    dest_bits = len(gpu_ids).bit_length()

    for relation, received, moving_marker in (
        (r, received_r, BROADCAST_R),
        (s, received_s, BROADCAST_S),
    ):
        for src in gpu_ids:
            shard = relation.shard(src)
            pids = partition_of(shard.keys, num_partitions)
            # Single-owner partitions: one stable order by owner GPU, then
            # one contiguous slice per owner.  Destination 0 marks the
            # broadcast partitions, which are handled below.
            destinations = owner_map[pids] + 1
            order = stable_bucket_order(destinations, dest_bits)
            bounds = np.cumsum(np.bincount(destinations, minlength=len(gpu_ids) + 1))
            keys, ids = shard.keys[order], shard.ids[order]
            for dst_pos, dst in enumerate(gpu_ids):
                start, end = bounds[dst_pos], bounds[dst_pos + 1]
                if start < end:
                    received[dst].append(GpuShard(keys[start:end], ids[start:end]))
            # Broadcast partitions: this relation either moves to every
            # owner (if it is the broadcast side) or stays put on the
            # owners (if it is the kept side).
            for p in broadcast_set:
                mask = pids == p
                if not np.any(mask):
                    continue
                piece = GpuShard(shard.keys[mask], shard.ids[mask])
                owner_positions = assignment.owners[p]
                if assignment.broadcast_side[p] == moving_marker:
                    for dst_pos in owner_positions:
                        received[gpu_ids[dst_pos]].append(piece)
                else:
                    if position[src] in owner_positions:
                        received[src].append(piece)

    return DistributedData(
        r={g: GpuShard.concat(received_r[g]) for g in gpu_ids},
        s={g: GpuShard.concat(received_s[g]) for g in gpu_ids},
    )
