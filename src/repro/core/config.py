"""Configuration of the MG-Join pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.histogram import max_partitions
from repro.sim.compute import GpuComputeModel
from repro.sim.shuffle import ShuffleConfig


@dataclass(frozen=True)
class MGJoinConfig:
    """All tunables of an MG-Join run.

    The defaults reproduce the paper's configuration on the DGX-1:
    4,096 global partitions (Eq. 1 with a V100's shared memory), 2 MB
    packets in batches of 8, compression enabled, adaptive routing.
    """

    #: Number of global partitions; ``None`` derives P_max from Eq. 1.
    num_partitions: int | None = None
    #: Histogram entry size Ĥ_s in bytes (Eq. 1).
    histogram_entry_bytes: int = 4
    #: Thread blocks per SM T_b (Eq. 1).
    thread_blocks_per_sm: int = 2
    #: Fan-out of each local (histogram-free) partitioning pass.
    local_fanout: int = 512
    #: Largest co-partition joinable in shared memory, in tuples.
    target_partition_tuples: int = 3072
    #: Apply the paper's key-prefix + delta/null-suppression compression
    #: to cross-GPU traffic (§5.1).
    compression: bool = True
    #: Compression block size for tuple ids (§5.1: 8 KB blocks).
    compression_block_bytes: int = 8192
    #: Tuple layout: 4-byte key + 4-byte tuple id.
    key_bytes: int = 4
    id_bytes: int = 4
    #: Data-distribution machinery settings (packet size, batching,
    #: buffers, broadcast behaviour).
    shuffle: ShuffleConfig = field(default_factory=ShuffleConfig)
    #: GPU kernel cost model.
    compute: GpuComputeModel = field(default_factory=GpuComputeModel)
    #: Materialize matched (r_id, s_id) pairs instead of counting them.
    materialize: bool = False

    @property
    def tuple_bytes(self) -> int:
        return self.key_bytes + self.id_bytes

    @property
    def global_partitions(self) -> int:
        """The global partition count: ``num_partitions`` or Eq. 1's P_max."""
        return self.num_partitions or max_partitions(
            self.compute.spec, self.histogram_entry_bytes, self.thread_blocks_per_sm
        )

    def __post_init__(self) -> None:
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        if self.local_fanout < 2:
            raise ValueError("local_fanout must be >= 2")
        if self.target_partition_tuples < 1:
            raise ValueError("target_partition_tuples must be positive")
