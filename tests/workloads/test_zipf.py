"""Finite-Zipf helpers."""

import numpy as np
import pytest

from repro.workloads import zipf
from repro.workloads.zipf import (
    ZipfTable,
    zipf_partition_counts,
    zipf_sample,
    zipf_weights,
)


class TestWeights:
    def test_zero_factor_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_weights_normalize(self):
        for z in (0.0, 0.5, 1.0, 2.0):
            assert zipf_weights(37, z).sum() == pytest.approx(1.0)

    def test_weights_decrease_with_rank(self):
        weights = zipf_weights(10, 1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_higher_z_more_skew(self):
        mild = zipf_weights(10, 0.5)
        strong = zipf_weights(10, 1.5)
        assert strong[0] > mild[0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -0.5)


class TestSample:
    def test_values_in_range(self):
        rng = np.random.default_rng(0)
        sample = zipf_sample(16, 1000, 1.0, rng)
        assert sample.min() >= 0 and sample.max() < 16

    def test_rank_zero_most_frequent(self):
        rng = np.random.default_rng(1)
        sample = zipf_sample(8, 20_000, 1.0, rng)
        counts = np.bincount(sample, minlength=8)
        assert counts[0] == counts.max()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            zipf_sample(8, -1, 1.0, np.random.default_rng(0))


class TestPartitionCounts:
    def test_counts_sum_to_total(self):
        for z in (0.0, 0.5, 1.0):
            counts = zipf_partition_counts(8, 12345, z)
            assert counts.sum() == 12345

    def test_uniform_split_even(self):
        counts = zipf_partition_counts(4, 1000, 0.0)
        assert counts.tolist() == [250, 250, 250, 250]

    def test_skewed_split_decreasing(self):
        counts = zipf_partition_counts(4, 10_000, 1.0)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > 2 * counts[-1]

    def test_deterministic(self):
        assert np.array_equal(
            zipf_partition_counts(8, 999, 0.7),
            zipf_partition_counts(8, 999, 0.7),
        )


def _choice(num_items, size, z, seed):
    return np.random.default_rng(seed).choice(
        num_items, size, p=zipf_weights(num_items, z)
    )


@pytest.mark.parametrize("z", [0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("size", [0, 1, 1000, 2**16 + 3])
@pytest.mark.parametrize(
    "num_items", [1, 2, 7, 2**16 - 1, 1 << 16, 2**16 + 1, 3 * 2**15]
)
def test_matches_rng_choice(z, size, num_items):
    """Same draws as ``Generator.choice`` from a same-seeded generator,
    on both sides of the guide table's power-of-two scale boundary."""
    sample = zipf_sample(num_items, size, z, np.random.default_rng(size))
    expected = _choice(num_items, size, z, size)
    assert sample.dtype == expected.dtype
    assert np.array_equal(sample, expected)


def test_matches_rng_choice_large():
    sample = zipf_sample(2**20, 2**20, 0.5, np.random.default_rng(3))
    assert np.array_equal(sample, _choice(2**20, 2**20, 0.5, 3))


@pytest.mark.parametrize("max_steps", [0, 1, 10**9])
@pytest.mark.parametrize("z", [0.5, 3.0])
def test_walk_and_bisection_agree(monkeypatch, max_steps, z):
    """Any walk length gives the same draws: 0 bisects every draw still
    behind its rank, 10**9 never bisects."""
    monkeypatch.setattr(ZipfTable, "MAX_STEPS", max_steps)
    sample = zipf_sample(2**16 + 1, 50_000, z, np.random.default_rng(5))
    assert np.array_equal(sample, _choice(2**16 + 1, 50_000, z, 5))


def test_one_table_equals_repeated_samples():
    """A table drawn twice continues the generator like two
    ``zipf_sample`` calls do: R and S share one table."""
    table = ZipfTable(5000, 0.75)
    shared = np.random.default_rng(9)
    first, second = table.sample(3000, shared), table.sample(4000, shared)
    fresh = np.random.default_rng(9)
    assert np.array_equal(first, zipf_sample(5000, 3000, 0.75, fresh))
    assert np.array_equal(second, zipf_sample(5000, 4000, 0.75, fresh))


def _plain_table(num_items, z, scale):
    """The weights, CDF and guide table built with full-size temporaries."""
    weights = np.arange(1, num_items + 1, dtype=np.float64) ** (-z)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    cells = np.ceil(cdf * scale).astype(np.int64)
    guide = np.bincount(cells, minlength=scale + 1)[:scale].cumsum()
    return cdf, guide


@pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("num_items", [1, 2, 7, 2**16 - 1, 2**16 + 1, 3 * 2**15])
@pytest.mark.parametrize("block", [3, 1 << 16])
def test_table_equals_the_plain_construction(monkeypatch, block, num_items, z):
    """The in-place CDF and the block-built guide, value for value."""
    monkeypatch.setattr(zipf, "BLOCK", block)
    table = ZipfTable(num_items, z)
    cdf, guide = _plain_table(num_items, z, table.scale)
    assert np.array_equal(table.cdf, cdf)
    assert table.guide.dtype == np.int32
    assert np.array_equal(table.guide, guide)


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize("z", [0.5, 3.0])
def test_draws_match_across_block_boundaries(monkeypatch, block, z):
    """Any block size draws what one ``Generator.choice`` call does,
    into int64 and into a uint32 key column alike."""
    monkeypatch.setattr(zipf, "BLOCK", block)
    table = ZipfTable(5000, z)
    expected = _choice(5000, 4321, z, 8)
    assert np.array_equal(table.sample(4321, np.random.default_rng(8)), expected)
    keys = table.fill(np.empty(4321, dtype=np.uint32), np.random.default_rng(8))
    assert keys.dtype == np.uint32
    assert np.array_equal(keys, expected)
