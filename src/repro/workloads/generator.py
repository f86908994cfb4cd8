"""Synthetic workload generation (paper §5.1).

The paper's workload: two relations of 8-byte tuples (4-byte key,
4-byte id), ``|R| = |S|``, keys generated sequentially then shuffled
(so selectivity is 100%: every R tuple matches exactly one S tuple).
Experiments scale the *logical* size up to 4,096M tuples; the generator
materializes a smaller real array and records the scale factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.relation import (
    ID_DTYPE,
    KEY_DTYPE,
    DistributedRelation,
    GpuShard,
    JoinWorkload,
)
from repro.workloads.zipf import ZipfTable, zipf_partition_counts


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic join input.

    Attributes:
        gpu_ids: GPUs holding the input.
        logical_tuples_per_gpu: Logical |R| (= |S|) tuples per GPU; the
            paper's default is 512M per GPU per relation.
        real_tuples_per_gpu: Tuples actually materialized per GPU per
            relation; must divide the logical count.
        placement_zipf: Zipf factor for how tuples spread over GPUs
            (0 = even).  The *total* input size is unchanged.
        key_zipf: Zipf factor for key values (0 = sequential unique
            keys, >0 = heavy hitters).
        seed: RNG seed; identical specs generate identical workloads.
    """

    gpu_ids: tuple[int, ...]
    logical_tuples_per_gpu: int = 512 * 1024 * 1024
    real_tuples_per_gpu: int = 1 << 17
    placement_zipf: float = 0.0
    key_zipf: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.gpu_ids:
            raise ValueError("need at least one GPU")
        if len(set(self.gpu_ids)) != len(self.gpu_ids):
            raise ValueError("duplicate GPU ids")
        if self.real_tuples_per_gpu < 1:
            raise ValueError("real_tuples_per_gpu must be positive")
        if self.logical_tuples_per_gpu % self.real_tuples_per_gpu:
            raise ValueError(
                "real_tuples_per_gpu must divide logical_tuples_per_gpu"
            )

    @property
    def logical_scale(self) -> int:
        return self.logical_tuples_per_gpu // self.real_tuples_per_gpu

    @property
    def num_gpus(self) -> int:
        return len(self.gpu_ids)


def round_logical_tuples(logical: int, real: int) -> int:
    """``logical`` rounded down to a whole multiple of ``real``, at
    least ``real``: the largest logical count ``real`` divides."""
    return (max(logical, real) // real) * real


def generate_workload(spec: WorkloadSpec) -> JoinWorkload:
    """Materialize the workload described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    # Heavy-hitter keys: ranks drawn from a finite Zipf over the key
    # universe.  Rank 0 (the heaviest key) can dominate entire radix
    # partitions, which is what exercises the skew handling.  R and S
    # draw from one table; 0 keeps sequential unique keys.
    table = None
    if spec.key_zipf > 0.0:
        table = ZipfTable(spec.real_tuples_per_gpu * spec.num_gpus, spec.key_zipf)
    r, s = (_relation(name, spec, table, rng) for name in ("R", "S"))
    return JoinWorkload(r=r, s=s, logical_scale=spec.logical_scale)


def _relation(
    name: str,
    spec: WorkloadSpec,
    table: ZipfTable | None,
    rng: np.random.Generator,
) -> DistributedRelation:
    """One relation: shuffled key and id columns, copied out into shards.

    The keys are drawn straight into their column.  The full columns
    die on return, before the next relation is drawn.
    """
    total = spec.real_tuples_per_gpu * spec.num_gpus
    if table is None:
        keys = np.arange(total, dtype=KEY_DTYPE)
    else:
        keys = table.fill(np.empty(total, dtype=KEY_DTYPE), rng)
    rng.shuffle(keys)
    ids = np.arange(total, dtype=ID_DTYPE)
    counts = zipf_partition_counts(spec.num_gpus, total, spec.placement_zipf)
    shards: dict[int, GpuShard] = {}
    offset = 0
    for gpu_id, count in zip(sorted(spec.gpu_ids), counts):
        end = offset + int(count)
        shards[gpu_id] = GpuShard(keys[offset:end].copy(), ids[offset:end].copy())
        offset = end
    return DistributedRelation(name=name, shards=shards)
