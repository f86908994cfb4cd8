"""The two probe kernels (nested-loop vs hash) are interchangeable."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probe import join_shards, join_shards_hash
from repro.core.relation import GpuShard


def shard(keys, ids=None):
    keys = np.asarray(keys, dtype=np.uint32)
    if ids is None:
        ids = np.arange(len(keys), dtype=np.uint32)
    return GpuShard(keys, np.asarray(ids, dtype=np.uint32))


def test_hash_join_empty():
    assert join_shards_hash(shard([]), shard([1])) == 0
    assert join_shards_hash(shard([1]), shard([])) == 0


def test_hash_join_counts():
    assert join_shards_hash(shard([1, 2, 2]), shard([2, 2, 3])) == 4


def test_hash_join_materialized_pairs():
    r = shard([5, 6], ids=[1, 2])
    s = shard([6, 5, 6], ids=[7, 8, 9])
    r_ids, s_ids = join_shards_hash(r, s, materialize=True)
    assert sorted(zip(r_ids.tolist(), s_ids.tolist())) == [
        (1, 8), (2, 7), (2, 9),
    ]


@given(
    st.lists(st.integers(0, 40), max_size=150),
    st.lists(st.integers(0, 40), max_size=150),
)
@settings(max_examples=60, deadline=None)
def test_kernels_always_agree(left, right):
    r, s = shard(left), shard(right)
    assert join_shards_hash(r, s) == join_shards(r, s)


@given(
    st.lists(st.integers(0, 25), max_size=80),
    st.lists(st.integers(0, 25), max_size=80),
)
@settings(max_examples=30, deadline=None)
def test_materialized_kernels_agree_as_sets(left, right):
    r, s = shard(left), shard(right)
    nested = join_shards(r, s, materialize=True)
    hashed = join_shards_hash(r, s, materialize=True)
    assert sorted(zip(*map(lambda a: a.tolist(), nested))) == sorted(
        zip(*map(lambda a: a.tolist(), hashed))
    )
