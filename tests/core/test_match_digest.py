"""``canonical_match_digest`` against the lexsort digest it replaced."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import canonical_match_digest

MAX_ID = 2**32 - 1


def lexsort_digest(r_ids, s_ids):
    """Sort pairs by (r, s) with ``np.lexsort``; hash r's then s's as uint64."""
    order = np.lexsort((s_ids, r_ids))
    payload = np.ascontiguousarray(
        np.stack([r_ids[order], s_ids[order]]).astype(np.uint64)
    ).tobytes()
    return hashlib.sha256(payload).hexdigest()


def ids(values):
    return np.asarray(values, dtype=np.uint32)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_ids_with_heavy_r_ties(seed):
    rng = np.random.default_rng(seed)
    n = 20_000
    r = rng.integers(0, 40, n).astype(np.uint32)
    s = rng.integers(0, MAX_ID, n, endpoint=True, dtype=np.uint64).astype(np.uint32)
    assert canonical_match_digest(r, s) == lexsort_digest(r, s)
    order = rng.permutation(n)
    assert canonical_match_digest(r[order], s[order]) == lexsort_digest(r, s)


def test_empty_input():
    empty = ids([])
    assert canonical_match_digest(empty, empty) == lexsort_digest(empty, empty)
    assert canonical_match_digest(empty, empty) == hashlib.sha256(b"").hexdigest()


def test_ids_at_the_top_of_the_range():
    r = ids([MAX_ID, 0, MAX_ID, MAX_ID - 1, 0])
    s = ids([MAX_ID, MAX_ID, 0, MAX_ID, 0])
    assert canonical_match_digest(r, s) == lexsort_digest(r, s)


def test_narrower_unsigned_ids_hash_like_uint32():
    r, s = ids([5, 1, 5]), ids([2, 9, 1])
    assert canonical_match_digest(r.astype(np.uint16), s.astype(np.uint8)) == (
        canonical_match_digest(r, s)
    )


def test_golden_digest():
    r = ids([3, 1, 3, 2])
    s = ids([7, 9, 5, MAX_ID])
    assert canonical_match_digest(r, s) == (
        "4f4c5a22fb0a089b10ff5586d82afd96820b31193d7e678bbeaaefc8d99b7226"
    )


@pytest.mark.parametrize("dtype", [np.uint64, np.int32, np.int64, np.float64])
def test_rejects_ids_that_are_not_narrow_unsigned(dtype):
    good = ids([1, 2])
    bad = np.asarray([1, 2], dtype=dtype)
    with pytest.raises(ValueError, match="r_ids"):
        canonical_match_digest(bad, good)
    with pytest.raises(ValueError, match="s_ids"):
        canonical_match_digest(good, bad)


def test_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        canonical_match_digest(ids([1, 2]), ids([1]))
