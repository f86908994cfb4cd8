"""Cross-GPU traffic compression (paper §5.1).

Two schemes combine to the paper's observed 1.3x-2x ratios:

1. **Radix-prefix elision for keys.**  Global partitioning groups
   tuples by the low ``n = log2(P)`` bits of the key, so those bits are
   implied by the partition a tuple travels in and are not transmitted.
   The remaining ``32 - n`` bits are sent byte-aligned.

2. **Delta + null suppression for tuple ids.**  Ids are compressed in
   8 KB blocks: each block subtracts its minimum (delta against the
   block min) and then drops leading zero bits (null suppression),
   packing values at the block's widest surviving bit width.

Both are implemented for real: :func:`compress_ids` /
:func:`decompress_ids` round-trip numpy arrays bit-exactly, and the
:class:`CompressionModel` measures achieved ratios on the actual data
to size the simulated flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.histogram import partition_of
from repro.core.local_partition import stable_bucket_order
from repro.core.relation import GpuShard

_BLOCK_COUNT_BYTES = 4


def _required_bits(values: np.ndarray) -> int:
    """Bits needed for the largest value (>= 1 so empty deltas survive)."""
    if len(values) == 0:
        return 1
    peak = int(values.max())
    return max(1, peak.bit_length())


def compress_ids(ids: np.ndarray, block_bytes: int = 8192) -> bytes:
    """Delta + null-suppression encode a uint32 id column."""
    if ids.dtype != np.uint32:
        ids = ids.astype(np.uint32)
    if block_bytes < 8:
        raise ValueError("block_bytes too small")
    block_len = max(1, block_bytes // 4)
    chunks = [
        ids[start : start + block_len] for start in range(0, len(ids), block_len)
    ]
    out = [np.uint32(len(chunks)).tobytes()]
    for chunk in chunks:
        base = np.uint32(chunk.min()) if len(chunk) else np.uint32(0)
        deltas = (chunk - base).astype(np.uint32)
        bits = _required_bits(deltas)
        out.append(bytes([bits]))
        out.append(base.tobytes())
        out.append(np.uint32(len(chunk)).tobytes())
        out.append(_pack_bits(deltas, bits))
    return b"".join(out)


def decompress_ids(payload: bytes) -> np.ndarray:
    """Invert :func:`compress_ids` bit-exactly."""
    view = memoryview(payload)
    num_blocks = int(np.frombuffer(view[:4], dtype=np.uint32)[0])
    offset = 4
    blocks: list[np.ndarray] = []
    for _ in range(num_blocks):
        bits = view[offset]
        base = np.frombuffer(view[offset + 1 : offset + 5], dtype=np.uint32)[0]
        count = int(
            np.frombuffer(view[offset + 5 : offset + 9], dtype=np.uint32)[0]
        )
        offset += 9
        packed_bytes = (count * bits + 7) // 8
        deltas = _unpack_bits(view[offset : offset + packed_bytes], bits, count)
        offset += packed_bytes
        blocks.append((deltas + base).astype(np.uint32))
    if not blocks:
        return np.empty(0, dtype=np.uint32)
    return np.concatenate(blocks)


def _pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack each value into ``bits`` bits, little-endian bit order."""
    if len(values) == 0:
        return b""
    as_bits = (
        (values[:, None] >> np.arange(bits, dtype=np.uint32)) & np.uint32(1)
    ).astype(np.uint8)
    return np.packbits(as_bits.reshape(-1), bitorder="little").tobytes()


def _unpack_bits(payload: memoryview, bits: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    raw = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), bitorder="little"
    )[: count * bits]
    as_bits = raw.reshape(count, bits).astype(np.uint32)
    return (as_bits << np.arange(bits, dtype=np.uint32)).sum(
        axis=1, dtype=np.uint32
    )


@dataclass(frozen=True)
class CompressionModel:
    """Byte accounting for compressed cross-GPU flows.

    ``key_bits_elided`` is ``log2(P)`` — the radix prefix implied by the
    partition id.  The id ratio is measured on real data once per run
    (ids are near-sequential inside partitions, so deltas are small).
    """

    enabled: bool
    key_bits_elided: int
    id_bytes_per_tuple: float
    key_bytes: int = 4
    id_bytes: int = 4

    @property
    def key_bytes_per_tuple(self) -> float:
        if not self.enabled:
            return float(self.key_bytes)
        remaining_bits = max(0, self.key_bytes * 8 - self.key_bits_elided)
        return remaining_bits / 8.0

    @property
    def bytes_per_tuple(self) -> float:
        if not self.enabled:
            return float(self.key_bytes + self.id_bytes)
        return self.key_bytes_per_tuple + self.id_bytes_per_tuple

    @property
    def ratio(self) -> float:
        """Uncompressed bytes / compressed bytes (paper: 1.3x-2x)."""
        return (self.key_bytes + self.id_bytes) / max(self.bytes_per_tuple, 1e-9)

    def flow_bytes(self, num_tuples: float) -> int:
        return int(round(num_tuples * self.bytes_per_tuple))


def measure_id_compression(
    sample_ids: np.ndarray, block_bytes: int = 8192
) -> float:
    """Achieved id bytes/tuple of the block codec on real data."""
    if len(sample_ids) == 0:
        return 4.0
    compressed = compress_ids(sample_ids, block_bytes)
    overhead_free = len(compressed) - _BLOCK_COUNT_BYTES
    return max(0.25, overhead_free / len(sample_ids))


def build_compression_model(
    enabled: bool,
    num_partitions: int,
    sample_ids: np.ndarray,
    block_bytes: int = 8192,
) -> CompressionModel:
    """Measure the codec on a data sample and build the byte model."""
    key_bits = int(np.log2(num_partitions)) if num_partitions > 1 else 0
    id_bytes = measure_id_compression(sample_ids, block_bytes) if enabled else 4.0
    return CompressionModel(
        enabled=enabled,
        key_bits_elided=key_bits,
        id_bytes_per_tuple=id_bytes,
    )


def shard_compression_model(
    shard: GpuShard,
    num_partitions: int,
    enabled: bool,
    block_bytes: int = 8192,
) -> CompressionModel:
    """Build the byte model from one shard's ids in partition order.

    Ids travel grouped by global partition, so the codec is measured on
    the shard's ids stably ordered by partition id.  With compression
    disabled the sample is never read and is not built.
    """
    sample_ids = np.empty(0, dtype=np.uint32)
    if enabled:
        partition_bits = (num_partitions - 1).bit_length()
        order = stable_bucket_order(
            partition_of(shard.keys, num_partitions), partition_bits
        )
        sample_ids = shard.ids[order]
    return build_compression_model(enabled, num_partitions, sample_ids, block_bytes)
