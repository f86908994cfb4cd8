"""Phase 3: recursive local partitioning."""

import numpy as np
import pytest

from repro.core.local_partition import (
    passes_needed,
    plan_local_passes,
    refine,
)
from repro.core.relation import GpuShard


def make_shard(count, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 20, count, dtype=np.uint32)
    return GpuShard(keys, np.arange(count, dtype=np.uint32))


class TestPassesNeeded:
    def test_already_small_needs_none(self):
        assert passes_needed(100, fanout=256, target_tuples=1000) == 0

    def test_one_pass(self):
        assert passes_needed(100_000, fanout=256, target_tuples=1000) == 1

    def test_two_passes(self):
        # ratio 65,000 needs two 256-way passes (256^2 = 65,536).
        assert passes_needed(6_500_000, fanout=256, target_tuples=100) == 2

    def test_three_passes(self):
        # ratio 100,000 exceeds 256^2, so a third pass is required.
        assert passes_needed(10_000_000, fanout=256, target_tuples=100) == 3

    def test_boundary_exact(self):
        assert passes_needed(256_000, fanout=256, target_tuples=1000) == 1

    @pytest.mark.parametrize(
        "size, fanout, target, expected",
        [
            # Exact powers, where a float logarithm rounds up past k.
            (2_097_152, 8, 1, 7),  # 8**7
            (6_442_450_944, 8, 3072, 7),  # 3072 * 8**7
            (2_097_153, 8, 1, 8),
            (64**7, 64, 1, 7),
            (64**7 * 3072, 64, 3072, 7),
            (128**5, 128, 1, 5),
            (128**5 * 3072, 128, 3072, 5),
            (128**5 + 1, 128, 1, 6),
            (512**3 * 3072, 512, 3072, 3),
        ],
    )
    def test_exact_powers(self, size, fanout, target, expected):
        assert passes_needed(size, fanout, target) == expected

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            passes_needed(10, fanout=1, target_tuples=1)
        with pytest.raises(ValueError):
            passes_needed(10, fanout=2, target_tuples=0)


class TestRefine:
    def test_buckets_partition_the_shard(self):
        shard = make_shard(5000)
        parts = refine(shard, global_bits=4, passes=1, fanout=16)
        total = sum(len(parts.bucket(i)) for i in range(parts.num_buckets))
        assert total == len(shard)

    def test_bucket_members_share_low_bits(self):
        shard = make_shard(2000)
        parts = refine(shard, global_bits=4, passes=1, fanout=16)
        mask = (1 << parts.bucket_bits) - 1
        for index in range(parts.num_buckets):
            bucket = parts.bucket(index)
            assert len(set((bucket.keys & mask).tolist())) == 1

    def test_more_passes_means_smaller_buckets(self):
        shard = make_shard(50_000)
        coarse = refine(shard, global_bits=2, passes=0, fanout=16)
        fine = refine(shard, global_bits=2, passes=2, fanout=16)
        assert np.diff(fine.boundaries).max() < np.diff(coarse.boundaries).max()

    def test_bucket_bits_capped_at_key_width(self):
        shard = make_shard(100)
        parts = refine(shard, global_bits=30, passes=3, fanout=256)
        assert parts.bucket_bits == 32

    def test_non_power_of_two_fanout_rejected(self):
        with pytest.raises(ValueError):
            refine(make_shard(10), global_bits=2, passes=1, fanout=100)

    def test_ids_travel_with_keys(self):
        shard = make_shard(1000)
        parts = refine(shard, global_bits=4, passes=1, fanout=16)
        for index in range(parts.num_buckets):
            bucket = parts.bucket(index)
            assert np.array_equal(shard.keys[bucket.ids], bucket.keys)


class TestPlanLocalPasses:
    def test_uses_smaller_side(self):
        r = np.array([10_000_000])
        s = np.array([100])
        # The small side already fits: no pass needed.
        assert plan_local_passes(r, s, fanout=256, target_tuples=1000) == 0

    def test_worst_partition_drives_passes(self):
        r = np.array([100, 200_000])
        s = np.array([100, 200_000])
        # Worst min-side is 200,000: one 256-way pass reaches <= 1000.
        assert plan_local_passes(r, s, fanout=256, target_tuples=1000) == 1

    def test_empty_histograms(self):
        empty = np.array([], dtype=np.int64)
        assert plan_local_passes(empty, empty, 256, 1000) == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plan_local_passes(np.array([1]), np.array([1, 2]), 256, 1000)
