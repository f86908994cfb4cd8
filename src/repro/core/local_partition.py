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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.relation import GpuShard


def passes_needed(partition_tuples: int, fanout: int, target_tuples: int) -> int:
    """Local passes required to shrink one partition below target.

    ``partition_tuples`` should be the *smaller* co-partition side: the
    probe only needs one side resident in shared memory.  Each pass
    divides the partition by the fan-out (uniform radix), so the answer
    is the smallest ``k`` with ``target_tuples * fanout**k >=
    partition_tuples``, found in exact integer arithmetic.
    """
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    if target_tuples < 1:
        raise ValueError("target_tuples must be positive")
    passes, capacity = 0, target_tuples
    while capacity < partition_tuples:
        capacity *= fanout
        passes += 1
    return passes


def bucket_mask(bucket_bits: int) -> np.uint32:
    """The low-``bucket_bits`` key mask: a tuple's bucket is ``key & mask``."""
    return np.uint32((1 << bucket_bits) - 1)


def run_bounds(sorted_values: np.ndarray) -> np.ndarray:
    """Start of every run of equal values in a sorted array, then the array's length.

    ``bounds[i]:bounds[i+1]`` slices run ``i``; ``np.diff(bounds)`` are
    the run lengths.
    """
    is_start = np.empty(len(sorted_values), dtype=bool)
    is_start[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=is_start[1:])
    return np.append(np.flatnonzero(is_start), len(sorted_values))


@dataclass
class LocalPartitions:
    """The refined co-partition buckets of one GPU.

    A tuple's bucket is ``key & mask`` on both join sides, so equal keys
    always share a bucket.  Matching per bucket therefore gives the same
    pairs as matching on the key alone, which is what lets the probe
    skip the buckets (:func:`repro.core.probe.probe_partitions`).

    The buckets themselves are built on first read, because the
    count-only probe reads none of them:

    * :attr:`bucket_runs` — ``(bucket_ids, boundaries)``: the shard's
      distinct bucket ids in ascending order, and where each bucket
      starts; bucket ``bucket_ids[i]`` holds ``boundaries[i+1] -
      boundaries[i]`` tuples.  One value sort of ``key & mask``.
    * :attr:`order` — groups tuples bucket-by-bucket
      (``boundaries[i]:boundaries[i+1]`` slices bucket ``i`` out of the
      reordered arrays) and keeps input order inside a bucket.  Up to
      two radix passes.
    """

    shard: GpuShard
    bucket_bits: int

    @cached_property
    def bucket_runs(self) -> tuple[np.ndarray, np.ndarray]:
        sorted_buckets = np.sort(self.shard.keys & bucket_mask(self.bucket_bits))
        boundaries = run_bounds(sorted_buckets)
        return sorted_buckets[boundaries[:-1]].astype(np.int64), boundaries

    @property
    def bucket_ids(self) -> np.ndarray:
        return self.bucket_runs[0]

    @property
    def boundaries(self) -> np.ndarray:
        return self.bucket_runs[1]

    @cached_property
    def order(self) -> np.ndarray:
        buckets = self.shard.keys & bucket_mask(self.bucket_bits)
        return stable_bucket_order(buckets, self.bucket_bits)

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

    ``bits`` may be at most 32.  The ids are sorted as ``uint16`` digits
    (``uint8`` when ``bits <= 8``), which numpy's stable sort handles
    with an O(n) radix sort: the low 16 bits first, then the high bits
    through that order.  Each pass is stable, so equal ids keep their
    input order, and the two passes together order by the full id
    (least-significant-digit radix sort).
    """
    if bits <= 8:
        return np.argsort(ids.astype(np.uint8), kind="stable")
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    if bits <= 16:
        return order
    high = (ids >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def refine(shard: GpuShard, global_bits: int, passes: int, fanout: int) -> LocalPartitions:
    """Bucket a shard by ``global_bits + passes*log2(fanout)`` key bits.

    Only the depth is settled here: the bucket runs and the bucket order
    are built when first read (see :class:`LocalPartitions`), so a probe
    that reads neither pays for no sort.
    """
    if fanout < 1 or fanout & (fanout - 1):
        raise ValueError("fanout must be a power of two")
    bucket_bits = min(global_bits + passes * (int(fanout).bit_length() - 1), 32)
    return LocalPartitions(shard=shard, bucket_bits=bucket_bits)


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
