"""The compression model measured on one shard's partition-ordered ids."""

import numpy as np
import pytest

from repro.core import compression
from repro.core.compression import build_compression_model, shard_compression_model
from repro.core.histogram import partition_of
from repro.core.relation import GpuShard


@pytest.mark.parametrize("num_partitions", [1, 64, 4096])
def test_shard_model_measures_partition_ordered_ids(num_partitions):
    rng = np.random.default_rng(num_partitions)
    keys = rng.integers(0, 1 << 24, size=20_000).astype(np.uint32)
    shard = GpuShard(keys, rng.permutation(20_000).astype(np.uint32))
    order = np.argsort(partition_of(keys, num_partitions), kind="stable")
    expected = build_compression_model(True, num_partitions, shard.ids[order], 1024)
    assert shard_compression_model(shard, num_partitions, True, 1024) == expected


def test_disabled_shard_model_skips_the_sample(monkeypatch):
    def no_sort(*args):
        raise AssertionError("sample sorted with compression disabled")

    monkeypatch.setattr(compression, "stable_bucket_order", no_sort)
    shard = GpuShard(np.arange(100, dtype=np.uint32), np.arange(100, dtype=np.uint32))
    model = shard_compression_model(shard, 64, enabled=False)
    assert model == build_compression_model(False, 64, shard.ids)
