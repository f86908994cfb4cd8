"""Phase 4: probing co-partitions (paper §3.2).

Once co-partitions are small, the paper joins each pair with a simple
nested-loop (or shared-memory hash) kernel — the two perform alike at
these sizes, so MG-Join uses the nested loop.  Functionally we need the
*exact* equi-join result with full duplicate handling: the per-bucket
kernels below deliver it with sort + binary search, and the whole-shard
:func:`probe_partitions` with sorted runs of equal keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.local_partition import LocalPartitions, run_bounds, stable_bucket_order
from repro.core.relation import GpuShard


@dataclass
class ProbeResult:
    """Join output of one GPU (counts, optionally materialized pairs)."""

    matches: int = 0
    r_ids: np.ndarray | None = None
    s_ids: np.ndarray | None = None
    #: The probed ``(R, S)`` co-partition sets, for :attr:`buckets_probed`.
    copartitions: tuple[LocalPartitions, LocalPartitions] | None = field(
        default=None, repr=False
    )
    _chunks: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @cached_property
    def buckets_probed(self) -> int:
        """Number of co-partition pairs probed (for cost accounting).

        Counted on first read, from the buckets both sides hold: only
        an observed join reads it, so the count-only probe builds no
        bucket runs.
        """
        if self.copartitions is None:
            return 0
        r_parts, s_parts = self.copartitions
        return len(_shared(r_parts.bucket_ids, s_parts.bucket_ids)[0])

    def add(self, r_ids: np.ndarray, s_ids: np.ndarray, materialize: bool) -> None:
        self.matches += len(r_ids)
        if materialize:
            self._chunks.append((r_ids, s_ids))

    def finalize(self, materialize: bool) -> "ProbeResult":
        if materialize:
            if self._chunks:
                self.r_ids = np.concatenate([c[0] for c in self._chunks])
                self.s_ids = np.concatenate([c[1] for c in self._chunks])
            else:
                self.r_ids = np.empty(0, dtype=np.uint32)
                self.s_ids = np.empty(0, dtype=np.uint32)
        self._chunks = []
        return self


def join_shards(
    r: GpuShard, s: GpuShard, materialize: bool = False
) -> tuple[np.ndarray, np.ndarray] | int:
    """Exact equi-join of two shards; handles duplicate keys.

    This is the *nested-loop-style* kernel stand-in (sorted search per
    probe tuple).  Returns the match count, or the matched
    ``(r_id, s_id)`` arrays when ``materialize`` is set.
    """
    if len(r) == 0 or len(s) == 0:
        if materialize:
            empty = np.empty(0, dtype=np.uint32)
            return empty, empty
        return 0
    order = np.argsort(s.keys, kind="stable")
    s_keys_sorted = s.keys[order]
    left = np.searchsorted(s_keys_sorted, r.keys, side="left")
    right = np.searchsorted(s_keys_sorted, r.keys, side="right")
    counts = right - left
    total = int(counts.sum())
    if not materialize:
        return total
    r_ids = np.repeat(r.ids, counts)
    # For each R tuple, the matching S rows are the consecutive run
    # s_keys_sorted[left:right]; build their indices run by run.
    offsets = np.repeat(left, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    s_ids = s.ids[order[offsets + within]]
    return r_ids, s_ids


def join_shards_hash(
    r: GpuShard, s: GpuShard, materialize: bool = False
) -> tuple[np.ndarray, np.ndarray] | int:
    """Equi-join via an explicit (shared-memory-style) hash table.

    The paper's probe builds a hash table over one co-partition in GPU
    shared memory; this variant mirrors that structure — group the
    build side by key, look probe keys up — and must always agree with
    :func:`join_shards` (the nested-loop variant).  "Existing
    literature has demonstrated that both implementations achieve
    similar performance for most partition sizes" (§3.2).
    """
    if len(r) == 0 or len(s) == 0:
        if materialize:
            empty = np.empty(0, dtype=np.uint32)
            return empty, empty
        return 0
    # Build: bucketize the build side (S) by unique key.
    unique_keys, inverse, counts = np.unique(
        s.keys, return_inverse=True, return_counts=True
    )
    # Probe: locate each R key among the unique build keys.
    slot = np.searchsorted(unique_keys, r.keys)
    slot = np.clip(slot, 0, len(unique_keys) - 1)
    hit = unique_keys[slot] == r.keys
    per_probe = np.where(hit, counts[slot], 0)
    total = int(per_probe.sum())
    if not materialize:
        return total
    # Group build-side row ids by key for expansion.
    build_order = stable_bucket_order(inverse, (len(unique_keys) - 1).bit_length())
    group_starts = np.cumsum(counts) - counts
    r_ids = np.repeat(r.ids, per_probe)
    offsets = np.repeat(group_starts[slot], per_probe)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(per_probe) - per_probe, per_probe
    )
    s_ids = s.ids[build_order[offsets + within]]
    return r_ids, s_ids


def _shared(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` with ``a[i] == b[j]``, for sorted unique arrays.

    One stable argsort of ``a`` then ``b``: timsort finds the two sorted
    runs and merges them in linear time.  Stability puts ``a``'s copy of
    a shared value right before ``b``'s, so every equal neighbouring pair
    is an ``(a, b)`` pair in that order.
    """
    merged = np.concatenate((a, b))
    order = np.argsort(merged, kind="stable")
    ranked = merged[order]
    pair = np.flatnonzero(ranked[1:] == ranked[:-1])
    return order[pair], order[pair + 1] - len(a)


def probe_partitions(
    r_parts: LocalPartitions,
    s_parts: LocalPartitions,
    materialize: bool = False,
    observer=None,
) -> ProbeResult:
    """Join matching buckets of the two local partition sets.

    With an :class:`~repro.obs.Observer`, the per-co-partition match
    counts feed the ``probe.matches_per_copartition`` histogram — the
    skew forensics view of the probe phase.

    The join runs as *one* whole-shard pass over sorted runs of equal
    keys instead of a Python loop over co-partition buckets.  Equal keys
    always share a bucket (see :class:`LocalPartitions`), so matching on
    the key alone finds exactly the per-bucket pairs:

    * Count only: sort both sides' key values, take the run heads and
      lengths, find the runs both sides hold with one linear merge, and
      sum ``r_len * s_len``.  No tuple-level argsort, no
      ``LocalPartitions.order`` and no bucket runs: ``buckets_probed``
      merges the two sides' bucket ids only when it is read.
    * Materialized or observed: each R tuple, visited in R's bucket
      order, takes the length and start of its key's run in S's rows
      stably sorted by key.  Inside one bucket those S rows keep input
      order, as the bucketed loop visits them.  Run values reach the
      tuples by a scatter through R's key order, which one radix pass
      over the high key bits derives from its bucket order; there is
      no binary search.

    Either way the output equals :func:`probe_partitions_bucketed`:
    match counts, ``buckets_probed``, histogram observations (bucket
    order) and the materialized row-id order, whichever kernel the
    loop runs (a run of equal keys is a hash group).
    ``tests/core/test_probe_vectorized.py`` pins all of it.
    """
    if r_parts.bucket_bits != s_parts.bucket_bits:
        raise ValueError("co-partitions were refined to different depths")
    match_histogram = (
        observer.metrics.histogram("probe.matches_per_copartition")
        if observer is not None
        else None
    )
    result = ProbeResult(copartitions=(r_parts, s_parts))
    r_shard, s_shard = r_parts.shard, s_parts.shard
    if len(r_shard) == 0 or len(s_shard) == 0:
        return result.finalize(materialize)
    per_tuple = materialize or match_histogram is not None
    if per_tuple:
        # One more radix pass, over the high key bits, continues R's
        # bucket order into key order with ties in input order: bucket
        # position by_high[p] holds the row at key position p.
        r_rows = r_parts.order
        r_keys = r_shard.keys[r_rows]
        bits = r_parts.bucket_bits
        by_high = stable_bucket_order(r_keys >> np.uint32(bits), 32 - bits)
        s_by_key = stable_bucket_order(s_shard.keys, 32)
        r_keys, s_keys = r_keys[by_high], s_shard.keys[s_by_key]
    else:
        r_keys, s_keys = np.sort(r_shard.keys), np.sort(s_shard.keys)
    r_bounds, s_bounds = run_bounds(r_keys), run_bounds(s_keys)
    r_run, s_run = _shared(r_keys[r_bounds[:-1]], s_keys[s_bounds[:-1]])
    r_lens, s_lens = np.diff(r_bounds), np.diff(s_bounds)
    if not per_tuple:
        result.matches = int((r_lens[r_run] * s_lens[s_run]).sum())
        return result.finalize(materialize)
    # Per R run: the matching S run's length and start (none: length 0).
    run_count = np.zeros(len(r_lens), dtype=np.int64)
    run_count[r_run] = s_lens[s_run]
    run_start = np.zeros(len(r_lens), dtype=np.int64)
    run_start[r_run] = s_bounds[s_run]
    # Each R row's run, in bucket order.
    run = np.empty(len(r_keys), dtype=np.int64)
    run[by_high] = np.repeat(np.arange(len(r_lens)), r_lens)
    counts = run_count[run]
    result.matches = int(counts.sum())
    if match_histogram is not None:
        r_pos, _ = _shared(r_parts.bucket_ids, s_parts.bucket_ids)
        result.buckets_probed = len(r_pos)
        per_bucket = np.add.reduceat(counts, r_parts.boundaries[:-1])
        for pos in r_pos:
            match_histogram.observe(int(per_bucket[pos]))
    if not materialize:
        return result.finalize(materialize)
    # Output slot k of R tuple t reads S position left[t] + (k - first[t]).
    left = run_start[run]
    first = np.cumsum(counts) - counts
    s_pos = np.arange(result.matches, dtype=np.int64) + np.repeat(left - first, counts)
    result.r_ids = np.repeat(r_shard.ids[r_rows], counts)
    result.s_ids = s_shard.ids[s_by_key[s_pos]]
    return result


def probe_partitions_bucketed(
    r_parts: LocalPartitions,
    s_parts: LocalPartitions,
    materialize: bool = False,
    kernel=join_shards,
    observer=None,
) -> ProbeResult:
    """Reference bucket-by-bucket probe loop.

    Kept as the semantic specification of :func:`probe_partitions`: it
    joins each shared co-partition with ``kernel`` (:func:`join_shards`
    or :func:`join_shards_hash`), one pair at a time.  The vectorized
    path must match it exactly — counts, ``buckets_probed``, histogram
    observations and materialized row-id order — which the identity
    test enforces.
    """
    if r_parts.bucket_bits != s_parts.bucket_bits:
        raise ValueError("co-partitions were refined to different depths")
    match_histogram = (
        observer.metrics.histogram("probe.matches_per_copartition")
        if observer is not None
        else None
    )
    result = ProbeResult()
    s_index = {int(b): i for i, b in enumerate(s_parts.bucket_ids)}
    for r_index, bucket_id in enumerate(r_parts.bucket_ids):
        s_pos = s_index.get(int(bucket_id))
        if s_pos is None:
            continue
        r_bucket = r_parts.bucket(r_index)
        s_bucket = s_parts.bucket(s_pos)
        joined = kernel(r_bucket, s_bucket, materialize=materialize)
        result.buckets_probed += 1
        if materialize:
            bucket_matches = len(joined[0])
            result.add(joined[0], joined[1], materialize=True)
        else:
            bucket_matches = joined
            result.matches += joined
        if match_histogram is not None:
            match_histogram.observe(bucket_matches)
    return result.finalize(materialize)
