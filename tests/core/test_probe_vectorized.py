"""Vectorized probe vs the bucketed reference loop: exact identity.

``probe_partitions`` replaces the Python loop over co-partition buckets
with one whole-shard pass over sorted runs of equal keys;
``probe_partitions_bucketed`` is kept as its semantic specification.
These tests fuzz both over skewed shards and hold them to identical
output — match counts, ``buckets_probed``, per-bucket histogram
observations, and the materialized ``(r_id, s_id)`` row order — for
both probe kernels.  They cover the shallow 7-bit depth, the 21-bit
depth of one 512-way pass over 4,096 global partitions, and the 32-bit
cap, with keys up to ``0xFFFFFFFF`` and shards of all-distinct or
all-equal keys.  The count-only, unobserved probe must build neither
the bucket order nor the bucket runs.
"""

import numpy as np
import pytest

from repro.core.local_partition import refine
from repro.core.probe import (
    PROBE_METHODS,
    probe_partitions,
    probe_partitions_bucketed,
)
from repro.core.relation import GpuShard
from repro.obs import Observer


def _shard(rng, size, key_space, start_id=0):
    keys = rng.integers(0, key_space, size=size, dtype=np.uint32)
    ids = np.arange(start_id, start_id + size, dtype=np.uint32)
    return GpuShard(keys, ids)


def _partitions(rng, size, key_space, passes=2, fanout=4, start_id=0):
    return refine(
        _shard(rng, size, key_space, start_id), global_bits=3, passes=passes, fanout=fanout
    )


def _histogram_state(observer):
    hist = observer.metrics.histogram("probe.matches_per_copartition")
    return (hist.count, hist.total, hist.vmin, hist.vmax, list(hist.samples))


@pytest.mark.parametrize("method", sorted(PROBE_METHODS))
@pytest.mark.parametrize("seed", range(8))
def test_vectorized_matches_bucketed_reference(method, seed):
    rng = np.random.default_rng(seed)
    # Small key spaces force heavy duplication (the hard case for
    # duplicate expansion); varied sizes cover empty/shared buckets.
    key_space = int(rng.choice([8, 64, 1024, 1 << 20]))
    r_parts = _partitions(rng, int(rng.integers(0, 800)), key_space)
    s_parts = _partitions(rng, int(rng.integers(0, 800)), key_space, start_id=10_000)

    _assert_matches_reference(r_parts, s_parts, method)


def _assert_matches_reference(r_parts, s_parts, method="nested-loop"):
    for materialize in (False, True):
        obs_fast, obs_ref = Observer(), Observer()
        fast = probe_partitions(
            r_parts, s_parts, materialize=materialize, method=method, observer=obs_fast
        )
        ref = probe_partitions_bucketed(
            r_parts, s_parts, materialize=materialize, method=method, observer=obs_ref
        )
        assert fast.matches == ref.matches
        assert fast.buckets_probed == ref.buckets_probed
        assert _histogram_state(obs_fast) == _histogram_state(obs_ref)
        if materialize:
            assert fast.r_ids.dtype == ref.r_ids.dtype
            assert fast.s_ids.dtype == ref.s_ids.dtype
            assert np.array_equal(fast.r_ids, ref.r_ids)
            assert np.array_equal(fast.s_ids, ref.s_ids)
        else:
            assert fast.r_ids is None and ref.r_ids is None
        # Without an observer the count takes the sorted-runs path alone.
        unobserved = probe_partitions(
            r_parts, s_parts, materialize=materialize, method=method
        )
        assert unobserved.matches == ref.matches
        assert unobserved.buckets_probed == ref.buckets_probed
        if materialize:
            assert np.array_equal(unobserved.r_ids, ref.r_ids)
            assert np.array_equal(unobserved.s_ids, ref.s_ids)


#: (global_bits, passes, fanout): 7 bits, one 512-way pass over 4,096
#: global partitions (21 bits), and depths capped at 32 bits.
DEPTHS = {
    "7-bit": (3, 2, 4),
    "21-bit": (12, 1, 512),
    "32-bit-cap": (12, 3, 512),
}

#: Key-set shapes: name -> generator of ``n`` uint32 keys.
KEYS = {
    "full-range": lambda rng, n: rng.integers(0, 1 << 32, size=n, dtype=np.uint32),
    "top-keys": lambda rng, n: (0xFFFFFFFF - rng.integers(0, 64, size=n)).astype(
        np.uint32
    ),
    "distinct": lambda rng, n: (
        0xFFFFFFFF - rng.choice(1 << 24, size=n, replace=False)
    ).astype(np.uint32),
    "all-equal": lambda rng, n: np.full(n, 0xFFFFFFFF, dtype=np.uint32),
    "narrow": lambda rng, n: rng.integers(0, 1 << 12, size=n, dtype=np.uint32),
}


def _refined(keys, depth, start_id):
    ids = np.arange(start_id, start_id + len(keys), dtype=np.uint32)
    return refine(GpuShard(keys, ids), *DEPTHS[depth])


@pytest.mark.parametrize("keys", sorted(KEYS))
@pytest.mark.parametrize("depth", sorted(DEPTHS))
def test_real_depths_match_bucketed_reference(depth, keys):
    rng = np.random.default_rng(len(depth) * 31 + len(keys))
    make = KEYS[keys]
    size = 40 if keys == "all-equal" else 3000
    r_keys = make(rng, size)
    # Half of S shares R's keys so every shape has matches to expand.
    shared = rng.permutation(r_keys)[: size // 2]
    s_keys = np.concatenate((shared, make(rng, size // 2)))
    r_parts = _refined(r_keys, depth, 0)
    s_parts = _refined(rng.permutation(s_keys), depth, 10_000)
    _assert_matches_reference(r_parts, s_parts)


@pytest.mark.parametrize("depth", sorted(DEPTHS))
def test_many_shared_runs_match_bucketed_reference(depth):
    """Thousands of shared keys: the run merge must pair R before S."""
    rng = np.random.default_rng(7)
    keys = rng.choice(1 << 32, size=6000, replace=False).astype(np.uint32)
    r_keys = np.repeat(keys[:4000], rng.integers(1, 3, size=4000))
    s_keys = np.repeat(keys[2000:], rng.integers(1, 3, size=4000))
    r_parts = _refined(rng.permutation(r_keys), depth, 0)
    s_parts = _refined(rng.permutation(s_keys), depth, 100_000)
    ref = probe_partitions_bucketed(r_parts, s_parts)
    assert ref.matches > 2000
    _assert_matches_reference(r_parts, s_parts)


@pytest.mark.parametrize("depth", sorted(DEPTHS))
def test_count_only_probe_never_builds_the_bucket_order(depth):
    rng = np.random.default_rng(3)
    r_parts = _refined(KEYS["narrow"](rng, 2000), depth, 0)
    s_parts = _refined(KEYS["narrow"](rng, 2000), depth, 10_000)
    result = probe_partitions(r_parts, s_parts)
    assert result.matches > 0
    assert "order" not in vars(r_parts)
    assert "order" not in vars(s_parts)
    # The materialized probe reads R's order, and only then is it built.
    probe_partitions(r_parts, s_parts, materialize=True)
    assert "order" in vars(r_parts)


@pytest.mark.parametrize("depth", sorted(DEPTHS))
def test_count_only_probe_builds_nothing_unread(depth):
    """Neither side's bucket order nor bucket runs; ``buckets_probed``
    merges the bucket ids when it is read, and only then."""
    rng = np.random.default_rng(5)
    r_parts = _refined(KEYS["narrow"](rng, 2000), depth, 0)
    s_parts = _refined(KEYS["narrow"](rng, 2000), depth, 10_000)
    result = probe_partitions(r_parts, s_parts)
    assert result.matches > 0
    for parts in (r_parts, s_parts):
        assert "order" not in vars(parts)
        assert "bucket_runs" not in vars(parts)
    probed = result.buckets_probed
    assert "bucket_runs" in vars(r_parts) and "bucket_runs" in vars(s_parts)
    assert probed == probe_partitions_bucketed(r_parts, s_parts).buckets_probed > 0


def test_probe_methods_agree():
    """Nested-loop and hash kernels are interchangeable (paper §3.2)."""
    rng = np.random.default_rng(99)
    r_parts = _partitions(rng, 500, 32)
    s_parts = _partitions(rng, 700, 32, start_id=10_000)
    nested = probe_partitions(r_parts, s_parts, materialize=True, method="nested-loop")
    hashed = probe_partitions_bucketed(r_parts, s_parts, materialize=True, method="hash")
    assert nested.matches == hashed.matches
    assert np.array_equal(nested.r_ids, hashed.r_ids)
    assert np.array_equal(nested.s_ids, hashed.s_ids)


def test_empty_sides():
    rng = np.random.default_rng(0)
    empty = _partitions(rng, 0, 64)
    full = _partitions(rng, 100, 64, start_id=10_000)
    for r_parts, s_parts in ((empty, full), (full, empty), (empty, empty)):
        fast = probe_partitions(r_parts, s_parts, materialize=True)
        ref = probe_partitions_bucketed(r_parts, s_parts, materialize=True)
        assert fast.matches == ref.matches == 0
        assert fast.buckets_probed == ref.buckets_probed == 0
        assert len(fast.r_ids) == 0 and len(fast.s_ids) == 0


def test_mismatched_depths_rejected():
    rng = np.random.default_rng(1)
    shallow = _partitions(rng, 50, 64, passes=1)
    deep = _partitions(rng, 50, 64, passes=3, start_id=10_000)
    with pytest.raises(ValueError):
        probe_partitions(shallow, deep)
    with pytest.raises(ValueError):
        probe_partitions_bucketed(shallow, deep)


def test_unknown_method_rejected():
    rng = np.random.default_rng(2)
    parts = _partitions(rng, 10, 64)
    with pytest.raises(ValueError):
        probe_partitions(parts, parts, method="gpu-magic")
    with pytest.raises(ValueError):
        probe_partitions_bucketed(parts, parts, method="gpu-magic")
