"""Query execution engines: functional operators + simulated time.

All engines run the same exact numpy operators; they differ only in how
each operator's *time* is charged:

* :class:`MGJoinQueryEngine` — data lives partitioned across the GPUs;
  every join repartitions both inputs with MG-Join's machinery
  (compressed packets, adaptive multi-hop routing, transfer/compute
  overlap) via a real :class:`~repro.sim.shuffle.ShuffleSimulator` run.
* :class:`DPRJQueryEngine` — same shape, but direct routes, no
  compression and no overlap, matching the DPRJ baseline.

Row counts are multiplied by ``logical_scale`` for the cost model, so a
small generated dataset can stand in for TPC-H SF 250 (the functional
answers are exact at the generated scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.relational import operators
from repro.relational.table import Table
from repro.routing.adaptive import AdaptiveArmPolicy
from repro.routing.base import RoutingPolicy
from repro.routing.static import DirectPolicy
from repro.sim.compute import GpuComputeModel
from repro.sim.shuffle import FlowMatrix, ShuffleConfig, ShuffleSimulator
from repro.topology.links import PCIE_BANDWIDTH
from repro.topology.machine import MachineTopology


@dataclass
class OperatorCost:
    """One operator's contribution to the query runtime."""

    operator: str
    detail: str
    seconds: float
    logical_bytes: float = 0.0


@dataclass
class QueryReport:
    """Accumulated cost of one query execution."""

    engine: str
    operators: list[OperatorCost] = field(default_factory=list)

    def charge(
        self, operator: str, detail: str, seconds: float, logical_bytes: float = 0.0
    ) -> None:
        if seconds < 0:
            raise ValueError("operator time must be non-negative")
        self.operators.append(OperatorCost(operator, detail, seconds, logical_bytes))

    @property
    def total_seconds(self) -> float:
        return sum(op.seconds for op in self.operators)


class MGJoinQueryEngine:
    """Multi-GPU query execution backed by MG-Join data movement."""

    name = "mg-join"
    #: Routing + shuffle behaviour knobs that subclasses override.
    compression_ratio = 1.6
    overlap = True
    scan_efficiency = 0.80
    aggregate_efficiency = 0.50
    #: Per-query setup: plan construction, kernel-launch chains, final
    #: host synchronization.  Charged once per query.
    fixed_overhead_seconds = 0.35

    def __init__(
        self,
        machine: MachineTopology,
        gpu_ids: tuple[int, ...] | None = None,
        logical_scale: float = 1.0,
        compute: GpuComputeModel | None = None,
        policy: RoutingPolicy | None = None,
        shuffle_config: ShuffleConfig | None = None,
    ) -> None:
        if logical_scale < 1.0:
            raise ValueError("logical_scale must be >= 1")
        self.machine = machine
        self.gpu_ids = tuple(sorted(gpu_ids if gpu_ids is not None else machine.gpu_ids))
        self.logical_scale = float(logical_scale)
        self.compute = compute or GpuComputeModel()
        self.policy = policy or AdaptiveArmPolicy()
        self.shuffle_config = shuffle_config or ShuffleConfig()
        self.report = QueryReport(engine=self.name)
        self._base_bytes: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> None:
        """Reset accounting before a query."""
        self.report = QueryReport(engine=self.name)
        self._base_bytes: dict[str, int] = {}
        if self.fixed_overhead_seconds > 0:
            self.report.charge(
                "startup", "plan setup + kernel launches", self.fixed_overhead_seconds
            )
        if isinstance(self.policy, AdaptiveArmPolicy):
            self.policy._rotation.clear()

    @property
    def num_gpus(self) -> int:
        return len(self.gpu_ids)

    # -- operators -----------------------------------------------------------

    def scan(self, table: Table, columns=None, predicate=None) -> Table:
        """Project + filter, charged as one streaming pass per GPU slice."""
        self._base_bytes[table.name] = table.total_bytes
        projected = table.select(tuple(columns)) if columns is not None else table
        logical_bytes = projected.total_bytes * self.logical_scale
        per_gpu = logical_bytes / self.num_gpus
        seconds = self._stream_seconds(per_gpu, self.scan_efficiency)
        self.report.charge("scan", table.name, seconds, logical_bytes)
        if predicate is not None:
            projected = operators.filter_rows(projected, predicate)
        return projected

    def join(
        self, left: Table, right: Table, left_key: str, right_key: str
    ) -> Table:
        """Repartition join: shuffle both sides, partition, probe."""
        result = operators.hash_join(left, right, left_key, right_key)
        shuffle_seconds = self._charge_shuffle(left, right)
        compute_seconds = self._join_compute_seconds(left, right, result)
        if self.overlap:
            exposed = max(0.0, shuffle_seconds - compute_seconds)
            self.report.charge(
                "join-compute", f"{left.name}⋈{right.name}", compute_seconds
            )
            if exposed > 0:
                self.report.charge(
                    "join-shuffle", f"{left.name}⋈{right.name}", exposed
                )
        else:
            self.report.charge(
                "join-compute", f"{left.name}⋈{right.name}", compute_seconds
            )
            self.report.charge(
                "join-shuffle", f"{left.name}⋈{right.name}", shuffle_seconds
            )
        return result

    def aggregate(self, table: Table, keys, aggregates) -> Table:
        result = operators.group_aggregate(table, tuple(keys), tuple(aggregates))
        logical_bytes = table.total_bytes * self.logical_scale
        seconds = self._stream_seconds(
            logical_bytes / self.num_gpus, self.aggregate_efficiency
        )
        # Partial aggregates merge over the interconnect; group counts
        # are tiny next to the inputs, so charge a collection constant.
        seconds += self._collect_seconds(result.total_bytes)
        self.report.charge("aggregate", table.name, seconds, logical_bytes)
        return result

    def sort_limit(self, table: Table, by, ascending=None, limit=None) -> Table:
        result = operators.sort_rows(table, tuple(by), ascending)
        if limit is not None:
            result = result.head(limit)
        logical_bytes = table.total_bytes * self.logical_scale
        seconds = 2.0 * self._stream_seconds(
            logical_bytes / self.num_gpus, self.aggregate_efficiency
        )
        self.report.charge("sort", table.name, seconds, logical_bytes)
        return result

    # -- cost helpers --------------------------------------------------------

    def _stream_seconds(self, nbytes: float, efficiency: float) -> float:
        spec = self.compute.spec
        if nbytes <= 0:
            return spec.kernel_launch_overhead
        return spec.kernel_launch_overhead + nbytes / (
            efficiency * spec.memory_bandwidth
        )

    def _collect_seconds(self, nbytes: float) -> float:
        """Move a (small) result to the host over PCIe."""
        return 10e-6 + nbytes / PCIE_BANDWIDTH

    def _charge_shuffle(self, left: Table, right: Table) -> float:
        """Simulate the repartitioning of both join inputs."""
        if self.num_gpus < 2:
            return 0.0
        logical_bytes = (
            (left.total_bytes + right.total_bytes)
            * self.logical_scale
            / self.compression_ratio
        )
        if logical_bytes < 1:
            return 0.0
        # Uniformly partitioned inputs: every GPU sends 1/G of its
        # slice to each other GPU.
        per_flow = int(logical_bytes / (self.num_gpus * self.num_gpus))
        if per_flow == 0:
            return 0.0
        flows = FlowMatrix.all_to_all(self.gpu_ids, per_flow)
        config = self.shuffle_config
        if not self.overlap:
            config = replace(config, injection_rate=None, consume_rate=None)
        simulator = ShuffleSimulator(self.machine, self.gpu_ids, config)
        report = simulator.run(flows, self.policy)
        return report.elapsed

    def _join_compute_seconds(
        self, left: Table, right: Table, result: Table
    ) -> float:
        """Partition passes + probe on the worst GPU's slice."""
        rows_left = left.num_rows * self.logical_scale / self.num_gpus
        rows_right = right.num_rows * self.logical_scale / self.num_gpus
        matches = result.num_rows * self.logical_scale / self.num_gpus
        width_left = max(left.row_width(), 1)
        width_right = max(right.row_width(), 1)
        partition = self.compute.partition_time(
            rows_left, width_left, passes=1
        ) + self.compute.partition_time(rows_right, width_right, passes=1)
        probe = self.compute.probe_time(
            rows_left, rows_right, matches, max(width_left, width_right)
        )
        return partition + probe


class DPRJQueryEngine(MGJoinQueryEngine):
    """The same queries with DPRJ-style joins underneath."""

    name = "dprj"
    compression_ratio = 1.0
    overlap = False

    def __init__(self, machine, gpu_ids=None, logical_scale=1.0, **kwargs):
        kwargs.setdefault("policy", DirectPolicy())
        super().__init__(machine, gpu_ids, logical_scale, **kwargs)
