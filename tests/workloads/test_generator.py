"""The synthetic workload generator (paper §5.1)."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.workloads import WorkloadSpec, generate_workload

from helpers import make_workload


class TestSpecValidation:
    def test_scale_must_divide(self):
        with pytest.raises(ValueError):
            WorkloadSpec(
                gpu_ids=(0,), logical_tuples_per_gpu=1000,
                real_tuples_per_gpu=512,
            )

    def test_duplicate_gpus_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(gpu_ids=(0, 0))

    def test_empty_gpus_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(gpu_ids=())

    def test_logical_scale(self):
        spec = WorkloadSpec(
            gpu_ids=(0, 1),
            logical_tuples_per_gpu=512 * 1024 * 1024,
            real_tuples_per_gpu=1 << 16,
        )
        assert spec.logical_scale == 8192


class TestGeneration:
    def test_equal_relation_sizes(self):
        workload = make_workload(num_gpus=4, real=2048)
        assert workload.r.num_tuples == workload.s.num_tuples

    def test_keys_are_a_permutation(self):
        """Sequential-then-shuffled keys: 100% join selectivity."""
        workload = make_workload(num_gpus=2, real=1024)
        keys = np.sort(workload.r.all_keys())
        assert np.array_equal(keys, np.arange(2048, dtype=np.uint32))

    def test_r_and_s_differ(self):
        workload = make_workload(num_gpus=2, real=1024)
        assert not np.array_equal(
            workload.r.shard(0).keys, workload.s.shard(0).keys
        )

    def test_deterministic_per_seed(self):
        a = make_workload(num_gpus=2, real=512, seed=7)
        b = make_workload(num_gpus=2, real=512, seed=7)
        assert np.array_equal(a.r.shard(0).keys, b.r.shard(0).keys)

    def test_seeds_differ(self):
        a = make_workload(num_gpus=2, real=512, seed=1)
        b = make_workload(num_gpus=2, real=512, seed=2)
        assert not np.array_equal(a.r.shard(0).keys, b.r.shard(0).keys)

    def test_uniform_placement_even(self):
        workload = make_workload(num_gpus=4, real=1000)
        sizes = {g: workload.r.tuples_on(g) for g in range(4)}
        assert set(sizes.values()) == {1000}

    def test_zipf_placement_skews_sizes(self):
        workload = make_workload(num_gpus=4, real=1000, placement_zipf=1.0)
        sizes = [workload.r.tuples_on(g) for g in range(4)]
        assert sizes[0] > sizes[3]
        assert sum(sizes) == 4000  # total conserved

    def test_key_zipf_creates_duplicates(self):
        workload = make_workload(num_gpus=2, real=2048, key_zipf=1.0)
        keys = workload.r.all_keys()
        assert len(np.unique(keys)) < len(keys)

    def test_workload_logical_accessors(self):
        workload = make_workload(num_gpus=2, real=1024, logical=4096)
        assert workload.logical_scale == 4
        assert workload.logical_tuples == 2 * 2 * 1024 * 4
        assert workload.logical_tuples_on(0) == 2 * 1024 * 4

    def test_skewed_workload_digest_is_pinned(self):
        """Keys and ids of a skewed, skew-placed workload, byte for byte.

        The key draws are exact ``Generator.choice`` draws whatever the
        lookup method, so this digest must never move.
        """
        workload = generate_workload(
            WorkloadSpec(
                gpu_ids=(0, 1, 2, 3),
                logical_tuples_per_gpu=1 << 12,
                real_tuples_per_gpu=1 << 12,
                placement_zipf=0.3,
                key_zipf=0.5,
                seed=11,
            )
        )
        digest = hashlib.sha256()
        for relation in (workload.r, workload.s):
            for gpu_id in sorted(relation.shards):
                shard = relation.shards[gpu_id]
                digest.update(np.ascontiguousarray(shard.keys).tobytes())
                digest.update(np.ascontiguousarray(shard.ids).tobytes())
        assert digest.hexdigest() == (
            "db658463856280a50faa2dc44f8323e096e5b72a55643d9e763ae876b1d5222c"
        )


def test_generation_peak_stays_within_two_and_a_half_outputs():
    """No full-size temporaries: the traced peak of generating the
    end-to-end benchmark's ``join-compute`` input (8 GPUs x 256 Ki
    tuples, key zipf 0.5) stays within 2.5x the bytes it returns.
    Drawing into int64, casting and gathering the whole sample took
    3.7x."""
    spec = WorkloadSpec(
        gpu_ids=tuple(range(8)),
        logical_tuples_per_gpu=4 << 20,
        real_tuples_per_gpu=256 << 10,
        key_zipf=0.5,
        seed=42,
    )
    tracemalloc.start()
    try:
        workload = generate_workload(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(
        shard.keys.nbytes + shard.ids.nbytes
        for relation in (workload.r, workload.s)
        for shard in relation.shards.values()
    )
    assert output == 2 * 8 * (256 << 10) * 8
    assert peak <= 2.5 * output, peak / output
