"""Analytic cost model for GPU kernels.

The join's compute phases (histogram build, radix partitioning, local
partitioning, probe) are all memory-bandwidth bound on a V100 at the
tuple counts the paper uses, so each kernel is modelled as

    time = launch_overhead + bytes_touched / (efficiency * HBM bandwidth)

with per-kernel efficiency factors capturing scatter/atomic penalties.
The factors below are calibrated so a single simulated V100 joins about
3 billion 8-byte tuples per second end to end — the paper's single-GPU
operating point in Figure 11 — and they are configuration knobs, not
hard-coded truths.

The model also covers the unified-memory page-fault behaviour that UMJ
(the unified-memory join baseline) suffers from (§2.1): page faults are
serviced by the driver while GPU threads contend on locked page tables,
so fault cost grows with the number of GPUs touching the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class GpuSpec:
    """Static hardware parameters of one GPU model."""

    name: str
    num_sms: int
    clock_hz: float
    memory_bandwidth: float  # bytes/s (HBM)
    memory_bytes: int
    shared_memory_per_sm: int  # usable bytes for the histogram kernel
    dma_engines: int
    kernel_launch_overhead: float = 5e-6


#: The V100 of the DGX-1 (§5.1).  ``shared_memory_per_sm`` is the 32 KB
#: the histogram kernel can actually dedicate to histogram entries when
#: two thread blocks share a 64 KB SM allocation with working state,
#: which makes Eq. 1 produce the paper's 4,096-partition example.
V100 = GpuSpec(
    name="V100",
    num_sms=80,
    clock_hz=1.53e9,
    memory_bandwidth=900e9,
    memory_bytes=32 * GB,
    shared_memory_per_sm=32 * KB,
    dma_engines=3,
)


@dataclass(frozen=True)
class GpuComputeModel:
    """Kernel time estimates for one GPU.

    Efficiency factors are the achieved fraction of peak HBM bandwidth;
    scatter-heavy kernels achieve less than streaming ones.
    """

    spec: GpuSpec = V100
    histogram_efficiency: float = 0.55
    partition_efficiency: float = 0.16
    probe_efficiency: float = 0.28
    memcpy_efficiency: float = 0.90
    #: Unified-memory page parameters (UMJ baseline).
    page_size: int = 64 * KB
    page_fault_latency: float = 5e-6
    page_table_contention: float = 0.50

    def _stream_time(self, nbytes: float, efficiency: float) -> float:
        if nbytes < 0:
            raise ValueError(f"bytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return (
            self.spec.kernel_launch_overhead
            + nbytes / (efficiency * self.spec.memory_bandwidth)
        )

    # -- join kernels ----------------------------------------------------

    def histogram_time(self, num_tuples: float, key_bytes: int = 4) -> float:
        """Build a shared-memory histogram over ``num_tuples`` keys."""
        return self._stream_time(num_tuples * key_bytes, self.histogram_efficiency)

    def partition_time(
        self, num_tuples: float, tuple_bytes: int = 8, passes: int = 1
    ) -> float:
        """Radix-partition ``num_tuples`` (read + scattered write per pass)."""
        if passes < 0:
            raise ValueError("passes must be non-negative")
        per_pass = self._stream_time(
            num_tuples * tuple_bytes * 2, self.partition_efficiency
        )
        return per_pass * passes

    def probe_time(
        self,
        build_tuples: float,
        probe_tuples: float,
        matches: float,
        tuple_bytes: int = 8,
    ) -> float:
        """Join co-partitions: stream both sides, write match output."""
        touched = (build_tuples + probe_tuples + matches) * tuple_bytes
        return self._stream_time(touched, self.probe_efficiency)

    # -- unified memory (UMJ baseline) ------------------------------------

    def page_fault_time(self, remote_bytes: float, num_gpus: int) -> float:
        """Total fault-service time for ``remote_bytes`` of remote pages.

        Faults are serviced at page granularity.  The per-fault cost
        grows with GPU count because more threads contend on the locked
        page tables (§2.1, §5.3) — this is what makes UMJ on 8 GPUs
        slower than on one.
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if remote_bytes <= 0:
            return 0.0
        num_faults = remote_bytes / self.page_size
        per_fault = self.page_fault_latency * (
            1.0 + self.page_table_contention * (num_gpus - 1)
        )
        return num_faults * per_fault

    # -- reporting helpers -------------------------------------------------

    def cycles(self, seconds: float) -> float:
        """Aggregate SM clock cycles elapsed in ``seconds`` on this GPU."""
        return seconds * self.spec.clock_hz * self.spec.num_sms
