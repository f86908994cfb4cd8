"""UMJ: the unified-memory join baseline (Paul et al. [31]).

UMJ leans on the CUDA unified-memory feature: input buffers are visible
to every GPU, and whenever a kernel touches a tuple resident on another
GPU the driver services a page fault and migrates the 64 KB page.  No
explicit shuffle exists, so there is nothing for a routing policy to
optimize — the cost sits in the faults themselves, and it grows with
GPU count because concurrent fault handling locks the page tables
(§2.1): "the performance of UMJ on multiple GPUs (from 5 to 8) is even
worse than that of a single GPU" (§5.3).

The functional result is computed with the same exact partition/probe
machinery as MG-Join (modulo placement, since unified memory has no
notion of an optimized assignment); only the cost model differs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.assignment import PartitionAssignment, modulo_assignment
from repro.core.config import MGJoinConfig
from repro.core.histogram import HistogramSet
from repro.core.mgjoin import JoinPlan, MGJoin
from repro.sim.stats import ShuffleReport
from repro.topology.machine import MachineTopology


class UMJJoin(MGJoin):
    """Partitioned join over unified memory: page faults, no shuffle."""

    algorithm = "umj"
    overlap_distribution = False

    def __init__(
        self,
        machine: MachineTopology,
        config: MGJoinConfig | None = None,
        observer=None,
    ) -> None:
        base = config or MGJoinConfig()
        if base.compression:
            base = replace(base, compression=False)
        super().__init__(machine, base, policy=None, observer=observer)
        self._last_fault_time = 0.0

    def _make_assignment(self, histograms: HistogramSet) -> PartitionAssignment:
        return modulo_assignment(histograms)

    def _simulate_distribution(self, plan: JoinPlan) -> ShuffleReport | None:
        """Replace the routed shuffle with page-fault servicing time.

        Every byte that would have been a flow is instead pulled on
        demand through page faults.  The worst GPU's fault time is the
        exposed "distribution" cost.
        """
        compute = self.config.compute
        flows = plan.flows
        num_gpus = len(plan.gpu_ids)
        worst = 0.0
        for gpu_id in plan.gpu_ids:
            pulled = sum(
                nbytes for (_, dst), nbytes in flows.flows.items() if dst == gpu_id
            )
            fault_time = compute.page_fault_time(pulled, num_gpus)
            if self.observer is not None:
                self.observer.metrics.counter("umj.faulted_bytes", gpu=gpu_id).inc(
                    pulled
                )
            worst = max(worst, fault_time)
        self._last_fault_time = worst
        if self.observer is not None:
            self.observer.metrics.gauge("umj.page_fault_seconds").set(worst)
        return _FaultReport(worst) if worst > 0 else None


class _FaultReport(ShuffleReport):
    """Minimal stand-in: UMJ has no links, packets or routes to report."""

    def __init__(self, elapsed: float) -> None:
        super().__init__(
            policy_name="unified-memory",
            num_gpus=0,
            elapsed=elapsed,
            payload_bytes=0,
            delivered_bytes=0,
            wire_bytes=0,
            packets_delivered=0,
            hop_count_total=0,
            link_stats={},
            cut=None,  # type: ignore[arg-type] - no interconnect involved
            buffer_sync_count=0,
            board_broadcast_count=0,
        )

    @property
    def bisection_utilization(self) -> float:
        return 0.0
