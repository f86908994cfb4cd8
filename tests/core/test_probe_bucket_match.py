"""Shared-bucket matching in ``probe_partitions`` across bucket-id layouts.

The probe finds the co-partitions both sides hold with one linear merge
of the two sorted bucket-id arrays: a stable argsort of their
concatenation, where each equal neighbouring pair is an (R, S) pair.
These tests pin ``buckets_probed``, match counts, histogram observations
and materialized output against the bucketed reference loop when the
two id sets are disjoint, partly overlapping, nested, or when R has ids
beyond S's maximum and the mirror case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local_partition import refine
from repro.core.probe import probe_partitions, probe_partitions_bucketed
from repro.core.relation import GpuShard
from repro.obs import Observer

GLOBAL_BITS, PASSES, FANOUT = 4, 1, 4  # 6 bucket bits: ids 0..63
BUCKETS = 1 << (GLOBAL_BITS + 2 * PASSES)


def _parts(rng, bucket_lo, bucket_hi, size, start_id):
    """Refined shard whose tuples fall only in buckets [lo, hi)."""
    buckets = rng.integers(bucket_lo, bucket_hi, size=size)
    keys = (buckets + BUCKETS * rng.integers(0, 8, size=size)).astype(np.uint32)
    ids = np.arange(start_id, start_id + size, dtype=np.uint32)
    return refine(GpuShard(keys, ids), GLOBAL_BITS, PASSES, FANOUT)


LAYOUTS = {
    "disjoint": ((0, 32), (32, 64)),
    "disjoint-s-first": ((32, 64), (0, 32)),
    "partial": ((0, 40), (20, 64)),
    "r-beyond-s-max": ((0, 64), (0, 20)),
    "s-beyond-r-max": ((0, 20), (0, 64)),
    "r-inside-s": ((10, 30), (0, 64)),
    "single-shared": ((0, 31), (30, 64)),
    "identical": ((0, 64), (0, 64)),
    "empty-r": ((0, 0), (0, 64)),
    "empty-s": ((0, 64), (0, 0)),
}


def _histogram(observer):
    hist = observer.metrics.histogram("probe.matches_per_copartition")
    return hist.count, hist.total, list(hist.samples)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("materialize", [False, True])
def test_probe_matches_bucketed_reference(layout, materialize):
    (r_lo, r_hi), (s_lo, s_hi) = LAYOUTS[layout]
    rng = np.random.default_rng(len(layout))
    r_parts = _parts(rng, r_lo, r_hi, 3000 if r_hi > r_lo else 0, 0)
    s_parts = _parts(rng, s_lo, s_hi, 3000 if s_hi > s_lo else 0, 10_000)
    shared = np.intersect1d(r_parts.bucket_ids, s_parts.bucket_ids)

    got_obs, ref_obs = Observer(), Observer()
    got = probe_partitions(r_parts, s_parts, materialize, observer=got_obs)
    ref = probe_partitions_bucketed(r_parts, s_parts, materialize, observer=ref_obs)

    assert got.buckets_probed == ref.buckets_probed == len(shared)
    assert got.matches == ref.matches
    assert _histogram(got_obs) == _histogram(ref_obs)
    if materialize:
        assert np.array_equal(got.r_ids, ref.r_ids)
        assert np.array_equal(got.s_ids, ref.s_ids)

