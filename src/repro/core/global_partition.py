"""Phase 2b: global partitioning and the data-distribution flow plan.

Two jobs, mirroring the paper's step 1 and step 3 of the global
partitioning phase:

* :func:`plan_flows` — turn histograms + partition assignment +
  compression model into the :class:`FlowMatrix` the shuffle simulator
  routes (sizes at *logical* scale).
* :func:`execute_distribution` — actually move the numpy tuples so the
  rest of the pipeline (local partitioning, probe) runs on real data.

:func:`received_histograms` reads the partition counts each GPU ends up
with off the histograms, so planning the local passes touches no tuple.
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
from repro.core.histogram import HistogramSet
from repro.core.relation import ID_DTYPE, KEY_DTYPE, DistributedRelation, GpuShard
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


def received_histograms(
    histograms: HistogramSet, assignment: PartitionAssignment
) -> HistogramSet:
    """The partition histograms of what each GPU holds after distribution.

    The counts :func:`execute_distribution` delivers, read off the
    source histograms without touching a tuple: a single-owner
    partition's owner receives the partition's column sum; a broadcast
    partition's moving side reaches every owner in full, and its kept
    side stays put, so each owner keeps its own count.
    """
    gpu_ids = histograms.gpu_ids
    r_counts, s_counts = histograms.stacked()
    owns = assignment.single_owner_map() == np.arange(len(gpu_ids))[:, None]
    received_r = np.where(owns, r_counts.sum(axis=0), 0)
    received_s = np.where(owns, s_counts.sum(axis=0), 0)
    for p in np.nonzero(assignment.broadcast_side != NO_BROADCAST)[0]:
        owners = list(assignment.owners[p])
        if assignment.broadcast_side[p] == BROADCAST_R:
            moving, kept, moving_counts, kept_counts = (
                received_r, received_s, r_counts, s_counts
            )
        else:
            moving, kept, moving_counts, kept_counts = (
                received_s, received_r, s_counts, r_counts
            )
        moving[owners, p] = moving_counts[:, p].sum()
        kept[owners, p] = kept_counts[owners, p]
    return HistogramSet(
        num_partitions=histograms.num_partitions,
        r=dict(zip(gpu_ids, received_r)),
        s=dict(zip(gpu_ids, received_s)),
    )


def execute_distribution(
    r: DistributedRelation,
    s: DistributedRelation,
    histograms: HistogramSet,
    assignment: PartitionAssignment,
    received: HistogramSet | None = None,
) -> DistributedData:
    """Physically redistribute the numpy tuples per the assignment.

    Each source shard is ordered once, stably, over *slots*: one per
    owner GPU (its single-owner partitions), then one per broadcast
    partition.  Every slot is then one contiguous run of the order.  An
    owner slot goes to its owner; a broadcast slot of the moving side
    goes to every owner of the partition, and one of the kept side
    stays on the source if the source owns the partition.  Each GPU
    receives its pieces source by source, owner slice first, then the
    broadcast pieces in a fixed partition order.

    Each GPU's arrays are allocated once, sized by ``received`` (the
    :func:`received_histograms` of ``histograms`` and ``assignment``,
    computed here when not given).  Owner slices are gathered from the
    source shard straight into place; a source's broadcast slots are
    gathered once and copied to each receiver.
    """
    gpu_ids = histograms.gpu_ids
    num_gpus = len(gpu_ids)
    if received is None:
        received = received_histograms(histograms, assignment)

    # Slots: owner positions, then one per broadcast partition.  The
    # table holds the smallest unsigned digit that fits, which numpy's
    # stable argsort orders by radix.
    broadcast_side = assignment.broadcast_side
    broadcast = list(set(np.nonzero(broadcast_side != NO_BROADCAST)[0].tolist()))
    num_slots = num_gpus + len(broadcast)
    slot_of = assignment.single_owner_map().astype(np.min_scalar_type(num_slots - 1))
    slot_of[broadcast] = np.arange(num_gpus, num_slots)
    key_mask = KEY_DTYPE(histograms.num_partitions - 1)

    r_counts, s_counts = histograms.stacked()
    sides = []
    for relation, counts, holds, moving_marker in (
        (r, r_counts, received.r, BROADCAST_R),
        (s, s_counts, received.s, BROADCAST_S),
    ):
        dests = [
            GpuShard(np.empty(size, KEY_DTYPE), np.empty(size, ID_DTYPE))
            for size in (int(holds[g].sum()) for g in gpu_ids)
        ]
        filled = [0] * num_gpus
        for src_pos, src in enumerate(gpu_ids):
            shard = relation.shard(src)
            keys, ids = shard.keys, shard.ids
            order = np.argsort(np.take(slot_of, keys & key_mask), kind="stable")
            # Slot sizes: the source's histogram, summed per slot.
            sizes = np.bincount(slot_of, weights=counts[src_pos], minlength=num_slots)
            bounds = np.concatenate(([0], np.cumsum(sizes.astype(np.int64)))).tolist()
            if bounds[-1] != len(shard):
                raise ValueError(
                    f"histograms count {bounds[-1]} {relation.name} tuples on"
                    f" GPU {src}, which holds {len(shard)}"
                )
            # Owner slots: gathered straight into place.  mode="clip"
            # lets take write into ``out`` unbuffered; every index is in
            # range, so nothing is clipped.
            for pos in range(num_gpus):
                start, end = bounds[pos], bounds[pos + 1]
                if start < end:
                    at = filled[pos]
                    filled[pos] = at + end - start
                    picked = order[start:end]
                    np.take(keys, picked, out=dests[pos].keys[at : filled[pos]], mode="clip")
                    np.take(ids, picked, out=dests[pos].ids[at : filled[pos]], mode="clip")
            if not broadcast:
                continue
            # Broadcast slots are small and may go to many owners:
            # gather them once, then write each GPU's pieces with one
            # concatenate per GPU instead of one call per piece.
            first = bounds[num_gpus]
            picked = order[first:]
            slot_keys, slot_ids = keys[picked], ids[picked]
            piece_keys = [[] for _ in range(num_gpus)]
            piece_ids = [[] for _ in range(num_gpus)]
            for slot, p in enumerate(broadcast, start=num_gpus):
                start, end = bounds[slot] - first, bounds[slot + 1] - first
                if start == end:
                    continue
                owner_positions = assignment.owners[p]
                if broadcast_side[p] == moving_marker:
                    receivers = owner_positions
                elif src_pos in owner_positions:
                    receivers = (src_pos,)
                else:
                    continue
                piece_key, piece_id = slot_keys[start:end], slot_ids[start:end]
                for pos in receivers:
                    piece_keys[pos].append(piece_key)
                    piece_ids[pos].append(piece_id)
            for pos in range(num_gpus):
                if piece_keys[pos]:
                    at = filled[pos]
                    filled[pos] = at + sum(map(len, piece_keys[pos]))
                    np.concatenate(piece_keys[pos], out=dests[pos].keys[at : filled[pos]])
                    np.concatenate(piece_ids[pos], out=dests[pos].ids[at : filled[pos]])
        if filled != [len(dest) for dest in dests]:
            raise ValueError(
                f"received histograms count {[len(d) for d in dests]}"
                f" {relation.name} tuples, distribution delivered {filled}"
            )
        sides.append(dict(zip(gpu_ids, dests)))
    return DistributedData(*sides)
