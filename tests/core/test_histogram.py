"""Phase 1: histograms and Equation 1."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import build_histograms, max_partitions
from repro.core.histogram import partition_of
from repro.sim.compute import V100

from helpers import make_workload


def test_eq1_v100_yields_4096_partitions():
    """The paper's worked example: 4,096 partitions on a V100 (§3.2)."""
    assert max_partitions(V100) == 4096


def test_eq1_scales_with_shared_memory():
    bigger = replace(V100, shared_memory_per_sm=64 * 1024)
    assert max_partitions(bigger) == 8192


def test_eq1_scales_inversely_with_thread_blocks():
    assert max_partitions(V100, thread_blocks_per_sm=4) == 2048


def test_eq1_rounds_down_to_power_of_two():
    odd = replace(V100, shared_memory_per_sm=24 * 1024)
    partitions = max_partitions(odd)
    assert partitions & (partitions - 1) == 0
    assert partitions <= 24 * 1024 // 8


def test_eq1_rejects_bad_inputs():
    with pytest.raises(ValueError):
        max_partitions(V100, histogram_entry_bytes=0)
    tiny = replace(V100, shared_memory_per_sm=1)
    with pytest.raises(ValueError):
        max_partitions(tiny, histogram_entry_bytes=4)


def test_partition_of_uses_low_bits():
    keys = np.array([0, 1, 255, 256, 257], dtype=np.uint32)
    assert partition_of(keys, 256).tolist() == [0, 1, 255, 0, 1]


def test_partition_of_requires_power_of_two():
    with pytest.raises(ValueError):
        partition_of(np.array([1], dtype=np.uint32), 100)


def test_histograms_count_every_tuple():
    workload = make_workload(num_gpus=4, real=2048)
    histograms = build_histograms(workload.r, workload.s, 256)
    r_total, s_total = histograms.totals()
    assert r_total.sum() == workload.r.num_tuples
    assert s_total.sum() == workload.s.num_tuples


def test_histograms_match_manual_count():
    workload = make_workload(num_gpus=2, real=1024)
    histograms = build_histograms(workload.r, workload.s, 64)
    shard = workload.r.shard(0)
    manual = np.bincount(
        (shard.keys & 63).astype(np.int64), minlength=64
    )
    assert np.array_equal(histograms.r[0], manual)


def test_stacked_shape():
    workload = make_workload(num_gpus=3, real=512)
    histograms = build_histograms(workload.r, workload.s, 128)
    r, s = histograms.stacked()
    assert r.shape == (3, 128)
    assert s.shape == (3, 128)


def test_sequential_keys_are_balanced():
    """Sequential-then-shuffled keys fill radix partitions evenly."""
    workload = make_workload(num_gpus=2, real=8192)
    histograms = build_histograms(workload.r, workload.s, 16)
    r_total, _ = histograms.totals()
    assert r_total.max() == r_total.min()  # keys 0..N-1 mod 16 exactly even


def test_heavy_hitter_key_concentrates():
    workload = make_workload(num_gpus=2, real=4096, key_zipf=1.2, seed=3)
    histograms = build_histograms(workload.r, workload.s, 64)
    r_total, _ = histograms.totals()
    assert r_total.max() > 4 * np.median(r_total)
