"""Property-based tests (hypothesis) over core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import compress_ids, decompress_ids
from repro.core.local_partition import passes_needed, refine
from repro.core.probe import join_shards
from repro.core.relation import GpuShard
from repro.sim import Engine
from repro.topology import RouteEnumerator, dgx1_topology
from repro.topology.routes import physical_links
from repro.workloads.zipf import zipf_partition_counts, zipf_weights

uint32s = st.integers(min_value=0, max_value=2**32 - 1)


@given(st.lists(uint32s, max_size=500), st.sampled_from([64, 512, 8192]))
@settings(max_examples=60, deadline=None)
def test_compression_roundtrip_is_identity(values, block_bytes):
    data = np.array(values, dtype=np.uint32)
    assert np.array_equal(decompress_ids(compress_ids(data, block_bytes)), data)


@given(st.lists(uint32s, min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_compressed_never_absurdly_large(values):
    """Worst case: full 32-bit deltas + per-block headers."""
    data = np.array(values, dtype=np.uint32)
    compressed = compress_ids(data, 8192)
    assert len(compressed) <= 4 * len(data) + 16 + 4


@given(
    st.lists(st.integers(0, 50), max_size=200),
    st.lists(st.integers(0, 50), max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_join_count_matches_bag_semantics(left, right):
    from collections import Counter

    r = GpuShard(
        np.array(left, dtype=np.uint32),
        np.arange(len(left), dtype=np.uint32),
    )
    s = GpuShard(
        np.array(right, dtype=np.uint32),
        np.arange(len(right), dtype=np.uint32),
    )
    expected = sum(
        count * Counter(right)[key] for key, count in Counter(left).items()
    )
    assert join_shards(r, s) == expected


@given(
    st.lists(st.integers(0, 50), max_size=120),
    st.lists(st.integers(0, 50), max_size=120),
)
@settings(max_examples=40, deadline=None)
def test_materialized_pairs_all_match(left, right):
    r = GpuShard(np.array(left, dtype=np.uint32), np.arange(len(left), dtype=np.uint32))
    s = GpuShard(np.array(right, dtype=np.uint32), np.arange(len(right), dtype=np.uint32))
    r_ids, s_ids = join_shards(r, s, materialize=True)
    for r_id, s_id in zip(r_ids.tolist(), s_ids.tolist()):
        assert left[r_id] == right[s_id]


@given(st.lists(uint32s, max_size=400), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_refine_partitions_cover_exactly(keys, passes):
    shard = GpuShard(
        np.array(keys, dtype=np.uint32), np.arange(len(keys), dtype=np.uint32)
    )
    parts = refine(shard, global_bits=4, passes=passes, fanout=16)
    seen = []
    for index in range(parts.num_buckets):
        seen.extend(parts.bucket(index).ids.tolist())
    assert sorted(seen) == sorted(range(len(keys)))


@given(
    st.integers(1, 10**9),
    st.sampled_from([2, 8, 16, 64, 128, 256, 512, 1024]),
    st.integers(1, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_passes_needed_is_sufficient_and_minimal(size, fanout, target):
    passes = passes_needed(size, fanout, target)
    assert size / fanout**passes <= target
    if passes > 0:
        assert size / fanout ** (passes - 1) > target


@given(st.integers(1, 64), st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_zipf_weights_are_a_distribution(count, z):
    weights = zipf_weights(count, z)
    assert abs(weights.sum() - 1.0) < 1e-9
    assert np.all(weights >= 0)
    assert np.all(np.diff(weights) <= 1e-12)


@given(st.integers(1, 16), st.integers(0, 10**6), st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_zipf_partition_counts_conserve_total(parts, total, z):
    counts = zipf_partition_counts(parts, total, z)
    assert counts.sum() == total
    assert np.all(counts >= 0)


@given(
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_enumerated_routes_are_wellformed(src, dst, cap):
    if src == dst:
        return
    machine = dgx1_topology()
    enumerator = RouteEnumerator(machine, max_intermediates=cap)
    routes = enumerator.routes(src, dst)
    assert routes[0].is_direct
    for route in routes:
        assert route.src == src and route.dst == dst
        assert len(route.intermediates) <= cap
        links = physical_links(machine, route)
        assert links[0].src.index == src
        assert links[-1].dst.index == dst
        for first, second in zip(links, links[1:]):
            assert first.dst == second.src


@given(st.lists(st.floats(0.0001, 10.0), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_engine_time_never_goes_backwards(delays):
    engine = Engine()
    observed = []

    def wait(index):
        if index < len(delays):
            engine.schedule(delays[index], woke, index)

    def woke(index):
        observed.append(engine.now)
        wait(index + 1)

    wait(0)
    engine.run()
    assert observed == sorted(observed)
    assert engine.now == sum(delays) or abs(engine.now - sum(delays)) < 1e-9
