"""The traffic codec: exact round-trips and realistic ratios."""

import numpy as np
import pytest

from repro.core.compression import (
    CompressionModel,
    _id_block_bytes,
    build_compression_model,
    compress_ids,
    decompress_ids,
    measure_id_compression,
)


def roundtrip(values, block_bytes=8192):
    array = np.asarray(values, dtype=np.uint32)
    return decompress_ids(compress_ids(array, block_bytes))


def test_roundtrip_empty():
    assert len(roundtrip([])) == 0


def test_roundtrip_single_value():
    assert roundtrip([42]).tolist() == [42]


def test_roundtrip_sequential():
    data = np.arange(10_000, dtype=np.uint32)
    assert np.array_equal(roundtrip(data), data)


def test_roundtrip_random():
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2**32, 5000, dtype=np.uint32)
    assert np.array_equal(roundtrip(data), data)


def test_roundtrip_extremes():
    data = np.array([0, 2**32 - 1, 0, 2**32 - 1], dtype=np.uint32)
    assert np.array_equal(roundtrip(data), data)


def test_roundtrip_small_blocks():
    data = np.arange(1000, dtype=np.uint32) * 7
    assert np.array_equal(roundtrip(data, block_bytes=64), data)


def test_sequential_ids_compress_well():
    """Near-sequential ids (post-partition order) need few delta bits."""
    data = np.arange(100_000, dtype=np.uint32)
    bytes_per_id = measure_id_compression(data)
    assert bytes_per_id < 2.5  # vs 4 raw


def test_random_ids_do_not_compress():
    rng = np.random.default_rng(1)
    data = rng.integers(0, 2**32, 100_000, dtype=np.uint32)
    assert measure_id_compression(data) > 3.5


def _ids(pattern, count):
    rng = np.random.default_rng(count)
    if pattern == "random":
        return rng.integers(0, 2**32, count, dtype=np.uint32)
    if pattern == "sequential":
        return np.arange(count, dtype=np.uint32)
    if pattern == "zeros":
        return np.zeros(count, dtype=np.uint32)
    return rng.permutation(count).astype(np.uint32)


ID_PATTERNS = ("random", "sequential", "zeros", "permuted")
SIZE_CASES = [
    (count, block_bytes, pattern)
    for count in (0, 1, 2047, 2048, 2049, 2**18)
    for block_bytes in (8, 1000, 8192)
    for pattern in ID_PATTERNS
    # Packing 2^18 ids in 2-id blocks takes seconds; one pattern covers it.
    if (count, block_bytes) != (2**18, 8) or pattern == "permuted"
]


@pytest.mark.parametrize("count,block_bytes,pattern", SIZE_CASES)
def test_size_by_arithmetic_equals_packed_length(count, block_bytes, pattern):
    ids = _ids(pattern, count)
    expected = len(compress_ids(ids, block_bytes)) - 4
    assert _id_block_bytes(ids, block_bytes) == expected
    if count:
        assert measure_id_compression(ids, block_bytes) == max(0.25, expected / count)


def test_tiny_block_bytes_rejected():
    with pytest.raises(ValueError):
        compress_ids(np.arange(10, dtype=np.uint32), block_bytes=4)


class TestCompressionModel:
    def test_disabled_model_is_identity(self):
        model = CompressionModel(
            enabled=False, key_bits_elided=12, id_bytes_per_tuple=2.0
        )
        assert model.bytes_per_tuple == 8.0
        assert model.ratio == 1.0

    def test_key_prefix_elision(self):
        """log2(4096) = 12 bits of the key ride in the partition id."""
        model = CompressionModel(
            enabled=True, key_bits_elided=12, id_bytes_per_tuple=4.0
        )
        assert model.key_bytes_per_tuple == pytest.approx(2.5)

    def test_paper_ratio_range(self):
        """§5.1: compression achieves 1.3x-2x on the paper's workload."""
        ids = np.arange(1 << 16, dtype=np.uint32)
        model = build_compression_model(True, 4096, ids)
        assert 1.3 <= model.ratio <= 2.2

    def test_flow_bytes_rounding(self):
        model = CompressionModel(
            enabled=True, key_bits_elided=8, id_bytes_per_tuple=1.5
        )
        assert model.flow_bytes(1000) == round(1000 * (3.0 + 1.5))
