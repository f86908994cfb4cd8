"""The radix bucket order against the comparison sorts it replaced.

``stable_bucket_order`` stands in for ``np.argsort(ids, kind="stable")``
on small non-negative ids, and ``refine`` now orders its buckets with
it.  These tests require the exact same stable permutation: ``==`` on
every element, not just a valid grouping, so an unstable sort or a
missing high-bits pass fails them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.local_partition import refine, stable_bucket_order
from repro.core.relation import GpuShard

BITS = (1, 8, 15, 16, 17, 21, 31, 32)


def reference_refine(shard, global_bits, passes, fanout):
    """The int64 argsort + ``np.unique`` refine, frozen as the reference."""
    bucket_bits = min(global_bits + passes * int(math.log2(fanout)), 32)
    mask = np.uint32((1 << bucket_bits) - 1) if bucket_bits < 32 else np.uint32(0xFFFFFFFF)
    buckets = (shard.keys & mask).astype(np.int64)
    order = np.argsort(buckets, kind="stable")
    sorted_buckets = buckets[order]
    bucket_ids, starts = np.unique(sorted_buckets, return_index=True)
    boundaries = np.append(starts, len(sorted_buckets))
    return bucket_bits, order, bucket_ids, boundaries


def _inputs(bits, rng):
    top = (1 << bits) - 1
    pool = rng.integers(0, top + 1, size=5, dtype=np.int64)
    return {
        "uniform": rng.integers(0, top + 1, size=20_000, dtype=np.int64),
        "heavy-tie": pool[rng.integers(0, len(pool), size=20_000)],
        "all-equal": np.full(5_000, pool[0], dtype=np.int64),
        "empty": np.empty(0, dtype=np.int64),
        "single": np.array([top], dtype=np.int64),
        "max": np.where(rng.random(10_000) < 0.5, top, 0).astype(np.int64),
    }


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_matches_stable_argsort(bits, dtype):
    rng = np.random.default_rng(bits)
    for name, values in _inputs(bits, rng).items():
        ids = values.astype(dtype)
        expected = np.argsort(ids, kind="stable")
        got = stable_bucket_order(ids, bits)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def _shard(rng, size, key_space):
    keys = rng.integers(0, key_space, size=size, dtype=np.uint64).astype(np.uint32)
    return GpuShard(keys, np.arange(size, dtype=np.uint32))


REFINE_CASES = [
    # (size, key_space, global_bits, passes, fanout)
    (0, 1 << 20, 6, 1, 16),
    (1, 1 << 20, 6, 1, 16),
    (30_000, 1 << 21, 9, 0, 16),
    (30_000, 1 << 21, 9, 2, 16),  # 17 bits: both radix passes
    (30_000, 64, 9, 2, 16),  # heavy ties: far fewer keys than buckets
    (30_000, 1 << 32, 10, 6, 16),  # capped at bucket_bits = 32
    (30_000, 1 << 32, 0, 0, 2),  # one bucket
    (0, 1 << 32, 10, 6, 16),  # empty and capped
]


@pytest.mark.parametrize("case", REFINE_CASES, ids=[str(c) for c in REFINE_CASES])
def test_refine_matches_frozen_reference(case):
    size, key_space, global_bits, passes, fanout = case
    shard = _shard(np.random.default_rng(size + passes), size, key_space)
    parts = refine(shard, global_bits, passes, fanout)
    bucket_bits, order, bucket_ids, boundaries = reference_refine(
        shard, global_bits, passes, fanout
    )
    assert parts.bucket_bits == bucket_bits
    assert parts.order.dtype == order.dtype
    assert np.array_equal(parts.order, order)
    assert parts.bucket_ids.dtype == bucket_ids.dtype == np.int64
    assert np.array_equal(parts.bucket_ids, bucket_ids)
    assert parts.boundaries.dtype == boundaries.dtype
    assert np.array_equal(parts.boundaries, boundaries)
