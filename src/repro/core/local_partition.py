"""Phase 3: local recursive partitioning (paper §3.2).

After distribution, each GPU refines its partitions until at least one
side of every co-partition fits in GPU shared memory.  MG-Join uses the
histogram-*free* bucket-chaining partitioner of Sioulas et al. here
(Rationale 4) precisely because needing no histogram lets the kernel
start on remote packets the moment they arrive.

Functionally the refinement is radix: after ``k`` local passes with
fan-out ``F`` on top of ``P`` global partitions, a tuple's bucket is the
low ``log2(P) + k·log2(F)`` bits of its key.  The number of passes is
what the cost model charges for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.relation import GpuShard


def passes_needed(partition_tuples: int, fanout: int, target_tuples: int) -> int:
    """Local passes required to shrink one partition below target.

    ``partition_tuples`` should be the *smaller* co-partition side: the
    probe only needs one side resident in shared memory.
    """
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    if target_tuples < 1:
        raise ValueError("target_tuples must be positive")
    if partition_tuples <= target_tuples:
        return 0
    # Each pass divides the partition by the fan-out (uniform radix).
    ratio = partition_tuples / target_tuples
    return max(1, math.ceil(math.log(ratio, fanout)))


@dataclass
class LocalPartitions:
    """The refined co-partition buckets of one GPU.

    ``bucket_of`` maps each tuple to its final bucket id; ``order``
    groups tuples bucket-by-bucket (``boundaries[i]:boundaries[i+1]``
    slices bucket ``bucket_ids[i]`` out of the reordered arrays).
    """

    shard: GpuShard
    bucket_bits: int
    order: np.ndarray
    bucket_ids: np.ndarray
    boundaries: np.ndarray

    @property
    def num_buckets(self) -> int:
        return len(self.bucket_ids)

    def bucket(self, index: int) -> GpuShard:
        start, end = self.boundaries[index], self.boundaries[index + 1]
        rows = self.order[start:end]
        return GpuShard(self.shard.keys[rows], self.shard.ids[rows])

    def max_bucket_tuples(self) -> int:
        if self.num_buckets == 0:
            return 0
        return int(np.diff(self.boundaries).max())


def stable_bucket_order(ids: np.ndarray, bits: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in ``[0, 2**bits)``.

    ``bits`` may be at most 32.  The ids are sorted as ``uint16`` digits,
    which numpy's stable sort handles with an O(n) radix sort: the low
    16 bits first, then the high bits through that order.  Each pass is
    stable, so equal ids keep their input order, and the two passes
    together order by the full id (least-significant-digit radix sort).
    """
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    if bits <= 16:
        return order
    high = (ids >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def refine(shard: GpuShard, global_bits: int, passes: int, fanout: int) -> LocalPartitions:
    """Bucket a shard by ``global_bits + passes*log2(fanout)`` key bits."""
    if fanout & (fanout - 1):
        raise ValueError("fanout must be a power of two")
    bucket_bits = global_bits + passes * int(math.log2(fanout))
    bucket_bits = min(bucket_bits, 32)
    mask = np.uint32((1 << bucket_bits) - 1) if bucket_bits < 32 else np.uint32(0xFFFFFFFF)
    buckets = shard.keys & mask
    order = stable_bucket_order(buckets, bucket_bits)
    sorted_buckets = buckets[order]
    # A bucket starts wherever the sorted id changes (and at row 0).
    is_start = np.empty(len(sorted_buckets), dtype=bool)
    is_start[:1] = True
    np.not_equal(sorted_buckets[1:], sorted_buckets[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    bucket_ids = sorted_buckets[starts].astype(np.int64)
    boundaries = np.append(starts, len(sorted_buckets))
    return LocalPartitions(
        shard=shard,
        bucket_bits=bucket_bits,
        order=order,
        bucket_ids=bucket_ids,
        boundaries=boundaries,
    )


def plan_local_passes(
    r_partition_logical: np.ndarray,
    s_partition_logical: np.ndarray,
    fanout: int,
    target_tuples: int,
) -> int:
    """Passes a GPU needs for its worst assigned partition.

    The paper refines until *one* side of each co-partition fits in
    shared memory, so the smaller side of each partition drives the
    pass count ("unless both relations are heavily skewed" — a single
    gigantic key cannot be split by more radix bits, which the cap in
    :func:`passes_needed` reflects by bounding work, not looping
    forever).
    """
    if r_partition_logical.shape != s_partition_logical.shape:
        raise ValueError("histogram shapes differ")
    smaller = np.minimum(r_partition_logical, s_partition_logical)
    if len(smaller) == 0:
        return 0
    worst = int(smaller.max())
    return passes_needed(worst, fanout, target_tuples)
