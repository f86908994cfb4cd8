"""The MG-Join orchestrator (paper §3.2).

Runs the four phases — histogram, global partitioning (assignment +
data distribution), local partitioning, probe — functionally on the
workload's numpy shards while accounting costs at the workload's
logical scale:

* kernel times come from :class:`repro.sim.compute.GpuComputeModel`,
* the data-distribution step is simulated packet-by-packet under the
  configured routing policy (adaptive multi-hop by default): by
  :class:`repro.sim.shuffle.ShuffleSimulator` for a solo join, or on a
  fabric shared with other queries for a served one.

Overlap model: the global-partitioning kernel *produces* packets (it
paces injection), the local-partitioning kernel *consumes* them as they
arrive (Rationale 2), so the middle of the join costs
``max(partition pass, distribution, first local pass)`` plus any local
passes beyond the first.  The part of the distribution time not hidden
under compute is reported as the exposed "Data Distribution" of
Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.assignment import PartitionAssignment, assign_partitions
from repro.core.compression import CompressionModel, shard_compression_model
from repro.core.config import MGJoinConfig
from repro.core.global_partition import (
    DistributedData,
    execute_distribution,
    plan_flows,
    received_histograms,
)
from repro.core.histogram import HistogramSet, build_histograms
from repro.core.local_partition import plan_local_passes, refine
from repro.core.probe import probe_partitions
from repro.core.recovery import (
    JoinRecoveryCoordinator,
    RecoveryReport,
    canonical_match_digest,
    ensure_recoverable,
)
from repro.core.relation import JoinWorkload
from repro.obs import NULL_OBSERVER, Observer
from repro.routing.adaptive import AdaptiveArmPolicy
from repro.routing.base import RoutingPolicy
from repro.sim.integrity import IntegrityStats
from repro.sim.recovery import RecoveryConfig, RetryPolicy
from repro.sim.shuffle import FlowMatrix, ShuffleConfig, ShuffleSimulator
from repro.sim.stats import ShuffleReport
from repro.topology.machine import MachineTopology

#: Which wall-clock span names feed each :meth:`PhaseBreakdown.as_dict`
#: key.  ``MGJoin.run`` opens exactly these spans; the regression test
#: in ``tests/obs`` asserts the two stay in sync, so a new phase cannot
#: be timed without also appearing in the reported breakdown.
PHASE_SPANS: dict[str, tuple[str, ...]] = {
    "histogram": ("histogram",),
    "partition_compute": ("global_partition", "local_partition"),
    "distribution_exposed": ("shuffle",),
    "probe": ("probe",),
}


@dataclass(frozen=True)
class PhaseBreakdown:
    """Seconds spent per pipeline stage (logical scale).

    ``partition_compute`` is the overlapped partitioning work (global
    pass + all local passes); ``distribution_exposed`` is the slice of
    the data-distribution step that could not hide under compute — the
    "Data Distribution" bar of Figure 12.
    """

    histogram: float
    partition_compute: float
    distribution_exposed: float
    probe: float

    @property
    def total(self) -> float:
        return (
            self.histogram
            + self.partition_compute
            + self.distribution_exposed
            + self.probe
        )

    @property
    def distribution_share(self) -> float:
        if self.total <= 0:
            return 0.0
        return self.distribution_exposed / self.total

    def as_dict(self) -> dict[str, float]:
        return {
            "histogram": self.histogram,
            "partition_compute": self.partition_compute,
            "distribution_exposed": self.distribution_exposed,
            "probe": self.probe,
        }


@dataclass(frozen=True)
class JoinPlan:
    """What :meth:`MGJoin.prepare` settles before the distribution step.

    The step itself moves ``flows`` under ``shuffle_config``; then
    :meth:`MGJoin.finish` takes the plan back.
    """

    workload: JoinWorkload
    num_partitions: int
    histograms: HistogramSet
    histogram_time: float
    assignment: PartitionAssignment
    compression: CompressionModel
    #: Join-level crash recovery; ``None`` unless the fault plan can
    #: kill a GPU of this workload.
    bridge: JoinRecoveryCoordinator | None
    global_pass_time: float
    flows: FlowMatrix
    shuffle_config: ShuffleConfig

    @property
    def gpu_ids(self) -> tuple[int, ...]:
        return self.workload.gpu_ids


@dataclass(frozen=True)
class JoinPass:
    """What :meth:`MGJoin.functional_pass` computed, and all of the
    plan the phase composition still needs.

    Holds no relation, histogram or assignment of its own, so a served
    query can keep it from the moment its shuffle lands until the batch
    drains.  Under a fault plan that can crash a GPU it keeps the
    recovery ``bridge``, though, which holds the histograms and its own
    cost matrices (about 0.5 MB for 4 GPUs and 4096 partitions); the
    query's flow group holds the bridge until the drain as well.
    """

    gpu_ids: tuple[int, ...]
    logical_tuples: int
    real_tuples: int
    logical_scale: int
    histogram_time: float
    global_pass_time: float
    flows: FlowMatrix
    compression_ratio: float
    bridge: JoinRecoveryCoordinator | None
    #: GPUs the pass ran without (declared dead during the shuffle).
    dead_gpus: frozenset[int]
    assignment_broadcasts: int
    local_passes: int
    local_total_time: float
    matches: int
    per_gpu_matches: dict[int, int]
    probe_time: float
    match_digest: str | None


@dataclass
class JoinResult:
    """Everything one join run produced and measured."""

    algorithm: str
    num_gpus: int
    logical_tuples: int
    real_tuples: int
    breakdown: PhaseBreakdown
    matches_real: int
    logical_scale: int
    shuffle_report: ShuffleReport | None = None
    compression_ratio: float = 1.0
    assignment_broadcasts: int = 0
    local_passes: int = 0
    gpu_clock_hz: float = 1.53e9
    gpu_sms: int = 80
    per_gpu_matches: dict[int, int] = field(default_factory=dict)
    #: Order-independent sha256 of the materialized (r_id, s_id) match
    #: set; ``None`` unless ``config.materialize`` is on.  Healthy and
    #: crash-recovered runs of the same workload produce the same digest.
    match_digest: str | None = None
    #: Join-level crash-recovery summary; ``None`` on healthy runs.
    recovery: RecoveryReport | None = None

    @property
    def total_time(self) -> float:
        return self.breakdown.total

    @property
    def integrity(self) -> IntegrityStats | None:
        """The shuffle's integrity stats; ``None`` when nothing crossed
        the fabric (no shuffle report) or the integrity layer was off."""
        report = self.shuffle_report
        return None if report is None else report.integrity

    @property
    def matches_logical(self) -> int:
        return self.matches_real * self.logical_scale

    @property
    def throughput(self) -> float:
        """Input tuples joined per second (Figure 11/13 metric)."""
        if self.total_time <= 0:
            return 0.0
        return self.logical_tuples / self.total_time

    @property
    def cycles_per_tuple(self) -> float:
        """Aggregate SM cycles per input tuple (Figure 1 metric).

        Counts clock cycles elapsing on every SM of every participating
        GPU over the join's runtime, divided by logical input tuples.
        """
        if self.logical_tuples == 0:
            return 0.0
        cycles = self.total_time * self.gpu_clock_hz * self.gpu_sms * self.num_gpus
        return cycles / self.logical_tuples


class MGJoin:
    """Public entry point: MG-Join on one machine.

    :meth:`run` is :meth:`prepare` (histograms, assignment, flows),
    the simulated data-distribution step, then :meth:`finish`:
    :meth:`functional_pass` (local partitioning, probe, digest) and
    :meth:`compose` (phase composition around the shuffle report).  A
    served query (:class:`repro.serve.fabric.QuerySession`) calls the
    same steps around its share of a fabric shared with other queries,
    so the solo and the served join are one pipeline.  The baselines
    override the ``_make_assignment`` and ``_simulate_distribution``
    hooks.

    Example::

        machine = dgx1_topology()
        workload = generate_workload(WorkloadSpec(gpu_ids=(0, 1, 2, 3)))
        result = MGJoin(machine).run(workload)
        print(result.throughput, result.matches_logical)
    """

    algorithm = "mg-join"
    #: Whether the data-distribution step overlaps the compute chain
    #: (MG-Join's packetized design does; DPRJ's transfer-then-compute
    #: does not).
    overlap_distribution = True

    def __init__(
        self,
        machine: MachineTopology,
        config: MGJoinConfig | None = None,
        policy: RoutingPolicy | None = None,
        observer: Observer | None = None,
        sampler=None,
        faults=None,
        retry: RetryPolicy | None = None,
        recovery: RecoveryConfig | None = None,
    ) -> None:
        self.machine = machine
        self.config = config or MGJoinConfig()
        self.policy = policy or AdaptiveArmPolicy()
        #: Observability sink (spans + metrics); ``None`` = off.
        self.observer = observer
        #: Link-timeline sampler for the distribution step
        #: (:class:`repro.obs.analyze.LinkTimelineSampler`); ``None`` = off.
        self.sampler = sampler
        #: Fault plan (:class:`repro.faults.FaultPlan`) injected into the
        #: data-distribution step; ``None`` = healthy fabric.
        self.faults = faults
        #: Retry/backoff/host-fallback knobs for faulted shuffles;
        #: ``None`` = the fault plan's ``retry:`` section over
        #: :class:`~repro.sim.recovery.RetryPolicy` defaults.
        self.retry = retry
        #: Heartbeat/checkpoint knobs for join-level crash recovery;
        #: ``None`` = :class:`~repro.sim.recovery.RecoveryConfig` defaults.
        self.recovery = recovery

    @property
    def _observer(self) -> Observer:
        return self.observer if self.observer is not None else NULL_OBSERVER

    # ------------------------------------------------------------------

    def run(self, workload: JoinWorkload) -> JoinResult:
        """Execute the join and return results plus cost accounting."""
        obs = self._observer
        with obs.span(
            "join",
            algorithm=self.algorithm,
            gpus=len(workload.gpu_ids),
            logical_tuples=workload.logical_tuples,
            partitions=self.config.global_partitions,
        ):
            plan = self.prepare(workload)
            flows = plan.flows
            # Phase 2b: the global partitioning pass paces the
            # simulated distribution.
            with obs.span("global_partition"):
                with obs.span(
                    "shuffle", flows=len(flows.flows), payload_bytes=flows.total_bytes
                ):
                    shuffle_report = self._simulate_distribution(plan)
            return self.finish(plan, shuffle_report)

    def prepare(self, workload: JoinWorkload) -> JoinPlan:
        """Phases 1 and 2a: everything the distribution step needs.

        Builds the histograms, the partition assignment and the
        compression model, arms join-level crash recovery when the
        fault plan can kill a GPU, and derives the flows and the
        kernel-paced shuffle configuration from them.
        """
        config = self.config
        gpu_ids = workload.gpu_ids
        unknown = set(gpu_ids) - set(self.machine.gpu_ids)
        if unknown:
            raise ValueError(f"workload references unknown GPUs: {sorted(unknown)}")
        obs = self._observer
        compute = config.compute
        scale = workload.logical_scale
        num_partitions = config.global_partitions

        # Phase 1: histograms (real counts; times at logical scale).
        with obs.span("histogram"):
            histograms = build_histograms(workload.r, workload.s, num_partitions)
            histogram_time = max(
                compute.histogram_time(
                    workload.logical_tuples_on(g), key_bytes=config.key_bytes
                )
                for g in gpu_ids
            )

        # Phase 2a: partition assignment (overlapped with the partition
        # kernel per the paper, so it adds no critical-path time).
        with obs.span("assignment"):
            if len(gpu_ids) > 1:
                assignment = self._make_assignment(histograms)
            else:
                assignment = _single_gpu_assignment(histograms)
            compression = self._compression_model(workload, num_partitions)
        # Selective broadcast is the skew handler: count activations.
        obs.counter("assign.broadcast_partitions").inc(assignment.num_broadcast)

        global_pass_time = max(
            compute.partition_time(
                workload.logical_tuples_on(g), config.tuple_bytes, passes=1
            )
            for g in gpu_ids
        )
        flows = plan_flows(histograms, assignment, compression, scale)
        return JoinPlan(
            workload=workload,
            num_partitions=num_partitions,
            histograms=histograms,
            histogram_time=histogram_time,
            assignment=assignment,
            compression=compression,
            # The replicated histograms let the bridge recompute
            # survivor-only ownership mid-shuffle.
            bridge=self._make_recovery_bridge(
                histograms, assignment, compression, gpu_ids, scale
            ),
            global_pass_time=global_pass_time,
            flows=flows,
            shuffle_config=self._shuffle_config(
                flows, gpu_ids, global_pass_time, compression
            ),
        )

    def finish(
        self, plan: JoinPlan, shuffle_report: ShuffleReport | None
    ) -> JoinResult:
        """Phases 3 and 4 once ``plan``'s distribution step ran, and the
        phase composition: :meth:`functional_pass`, then :meth:`compose`.

        The distribution step took ``shuffle_report.elapsed`` seconds;
        with no report (nothing crossed the fabric) it took none.
        """
        return self.compose(self.functional_pass(plan), shuffle_report)

    def functional_pass(self, plan: JoinPlan) -> JoinPass:
        """Phases 3 and 4 on the data: the only step after
        :meth:`prepare` that reads the relations, histograms and
        assignment.

        It runs against the final assignment: if GPUs died during the
        shuffle it re-reads the original (host-resident) relations
        against the survivor-only assignment, so the result stays exact
        without a full restart.  It needs the shuffle's dead GPUs, not
        its report, so it can run as soon as every owed byte has landed.
        """
        obs = self._observer
        workload = plan.workload
        gpu_ids = plan.gpu_ids
        scale = workload.logical_scale
        bridge = plan.bridge
        dead = frozenset(bridge.dead_gpus) if bridge is not None else frozenset()
        assignment = bridge.final_assignment if dead else plan.assignment
        # Crashed GPUs contribute zero compute after their crash: the
        # local partition and probe phases run on survivors only.
        live_ids = tuple(g for g in gpu_ids if g not in dead)

        # Phase 3: local partitioning (overlapped with arrival) of the
        # data each GPU received.
        with obs.span("local_partition"):
            received = received_histograms(plan.histograms, assignment)
            data = execute_distribution(
                workload.r, workload.s, plan.histograms, assignment, received
            )
            local_passes, local_total_time = self._plan_local(
                received, live_ids, scale
            )
        if local_passes > 1:
            obs.counter("local.extra_passes").inc(local_passes - 1)

        # Phase 4: probe (real join, exact result).
        with obs.span("probe"):
            matches, per_gpu_matches, probe_time, match_digest = self._probe(
                data, live_ids, plan.num_partitions, local_passes, scale
            )
        for gpu_id in sorted(dead):
            per_gpu_matches[gpu_id] = 0
        return JoinPass(
            gpu_ids=gpu_ids,
            logical_tuples=workload.logical_tuples,
            real_tuples=workload.real_tuples,
            logical_scale=scale,
            histogram_time=plan.histogram_time,
            global_pass_time=plan.global_pass_time,
            flows=plan.flows,
            compression_ratio=plan.compression.ratio,
            bridge=bridge,
            dead_gpus=dead,
            assignment_broadcasts=assignment.num_broadcast,
            local_passes=local_passes,
            local_total_time=local_total_time,
            matches=matches,
            per_gpu_matches=per_gpu_matches,
            probe_time=probe_time,
            match_digest=match_digest,
        )

    def compose(
        self, joined: JoinPass, shuffle_report: ShuffleReport | None
    ) -> JoinResult:
        """Compose the pipeline's phase times around the distribution
        step's ``shuffle_report`` into the :class:`JoinResult`.

        Raises :class:`RuntimeError` if the recovery bridge declared a
        GPU dead after ``joined`` was computed: the pass would then
        have joined on a GPU the report says died.
        """
        gpu_ids = joined.gpu_ids
        distribution_time = (
            shuffle_report.elapsed if shuffle_report is not None else 0.0
        )
        bridge = joined.bridge
        dead = joined.dead_gpus
        if bridge is not None and frozenset(bridge.dead_gpus) != dead:
            raise RuntimeError(
                f"dead GPUs changed after the functional pass: joined "
                f"without {sorted(dead)}, composing with "
                f"{sorted(bridge.dead_gpus)} dead"
            )

        # Compose the pipeline.  The partitioning passes of one GPU are
        # all HBM-bandwidth bound, so they serialize with each other.
        # With overlap (MG-Join), the distribution hides under that
        # compute chain — packets are produced by the global pass and
        # consumed by the local pass as they arrive — but the traffic
        # crossing HBM taxes the kernels.  Without overlap (DPRJ), the
        # transfer is fully exposed between the passes.
        compute_chain = joined.global_pass_time + joined.local_total_time
        if self.overlap_distribution:
            hbm_tax = self._hbm_communication_tax(joined.flows, gpu_ids)
            phase23 = max(compute_chain + hbm_tax, distribution_time)
            exposed = phase23 - compute_chain
        else:
            exposed = distribution_time
        breakdown = PhaseBreakdown(
            histogram=joined.histogram_time,
            partition_compute=compute_chain,
            distribution_exposed=exposed,
            probe=joined.probe_time,
        )
        sim_recovery = shuffle_report.recovery if shuffle_report is not None else None
        recovery_report = None
        if dead:
            recovery_report = bridge.build_report(sim_recovery, distribution_time)
        compute = self.config.compute
        result = JoinResult(
            algorithm=self.algorithm,
            num_gpus=len(gpu_ids),
            logical_tuples=joined.logical_tuples,
            real_tuples=joined.real_tuples,
            breakdown=breakdown,
            matches_real=joined.matches,
            logical_scale=joined.logical_scale,
            shuffle_report=shuffle_report,
            compression_ratio=joined.compression_ratio,
            assignment_broadcasts=joined.assignment_broadcasts,
            local_passes=joined.local_passes,
            gpu_clock_hz=compute.spec.clock_hz,
            gpu_sms=compute.spec.num_sms,
            per_gpu_matches=joined.per_gpu_matches,
            match_digest=joined.match_digest,
            recovery=recovery_report,
        )
        if self.observer is not None:
            self.observer.record_join(result, joined, self.overlap_distribution)
        return result

    # ------------------------------------------------------------------
    # Pieces (template hooks overridden by the baselines)
    # ------------------------------------------------------------------

    def _make_assignment(self, histograms: HistogramSet) -> PartitionAssignment:
        return assign_partitions(
            histograms, self.machine, tuple_bytes=self.config.tuple_bytes
        )

    def _make_recovery_bridge(
        self,
        histograms: HistogramSet,
        assignment: PartitionAssignment,
        compression: CompressionModel,
        gpu_ids: tuple[int, ...],
        scale: int,
    ) -> JoinRecoveryCoordinator | None:
        """Arm join-level crash recovery when the plan can kill a GPU."""
        if self.faults is None or len(gpu_ids) < 2:
            return None
        # Lazy import: repro.faults pulls in the chaos harness, which
        # imports this module.
        from repro.faults.plan import FaultKind

        if not any(
            event.kind is FaultKind.GPU_CRASH for event in self.faults.events
        ):
            return None
        ensure_recoverable(self.faults, gpu_ids)
        return JoinRecoveryCoordinator(
            histograms,
            assignment,
            self.machine,
            compression,
            scale,
            tuple_bytes=self.config.tuple_bytes,
        )

    def _compression_model(
        self, workload: JoinWorkload, num_partitions: int
    ) -> CompressionModel:
        return shard_compression_model(
            workload.r.shard(workload.gpu_ids[0]),
            num_partitions,
            enabled=self.config.compression,
            block_bytes=self.config.compression_block_bytes,
        )

    def _shuffle_config(
        self,
        flows: FlowMatrix,
        gpu_ids: tuple[int, ...],
        global_pass_time: float,
        compression: CompressionModel,
    ) -> ShuffleConfig:
        """The configured shuffle with this join's injection/consume rates."""
        if not self.overlap_distribution:
            # Transfer-then-compute: everything is ready when the
            # transfer starts and nothing competes with it.
            return replace(
                self.config.shuffle, injection_rate=None, consume_rate=None
            )
        # Injection paced by the producing partition kernel,
        # consumption paced by the local-partitioning kernel.
        compute = self.config.compute
        worst_outgoing = max(
            (sum(flows.outgoing(g).values()) for g in gpu_ids), default=0
        )
        tuples_per_second = (
            compute.partition_efficiency
            * compute.spec.memory_bandwidth
            / (2.0 * self.config.tuple_bytes)
        )
        return replace(
            self.config.shuffle,
            injection_rate=(
                worst_outgoing / global_pass_time if global_pass_time > 0 else None
            ),
            consume_rate=tuples_per_second * compression.bytes_per_tuple,
        )

    def _simulate_distribution(self, plan: JoinPlan) -> ShuffleReport | None:
        if len(plan.gpu_ids) < 2 or plan.flows.total_bytes == 0:
            return None
        # Per-link transfer lanes merge into the pipeline trace.
        tracer = self.observer.spans if self.observer is not None else None
        simulator = ShuffleSimulator(
            self.machine, plan.gpu_ids, plan.shuffle_config, tracer=tracer,
            observer=self.observer, sampler=self.sampler, faults=self.faults,
            retry=self.retry, recovery_bridge=plan.bridge,
            recovery_config=self.recovery,
        )
        return simulator.run(plan.flows, self.policy)

    def _hbm_communication_tax(
        self, flows: FlowMatrix, gpu_ids: tuple[int, ...]
    ) -> float:
        """Compute-time cost of cross-GPU traffic crossing HBM.

        Every byte a GPU sends or receives is read from / written to
        its HBM by the DMA engines, stealing bandwidth from the
        partitioning kernels running at the same time.
        """
        if not flows.flows:
            return 0.0
        compute = self.config.compute
        worst = 0.0
        for gpu_id in gpu_ids:
            outgoing = sum(flows.outgoing(gpu_id).values())
            incoming = sum(
                nbytes for (_, dst), nbytes in flows.flows.items() if dst == gpu_id
            )
            worst = max(worst, float(outgoing + incoming))
        return worst / (compute.memcpy_efficiency * compute.spec.memory_bandwidth)

    def _plan_local(
        self,
        received: HistogramSet,
        gpu_ids: tuple[int, ...],
        scale: int,
    ) -> tuple[int, float]:
        """Return (max passes, all-passes time) from each GPU's received
        partition histograms."""
        config = self.config
        compute = config.compute
        worst_passes = 0
        worst_total = 0.0
        for gpu_id in gpu_ids:
            r_hist, s_hist = received.r[gpu_id], received.s[gpu_id]
            passes = plan_local_passes(
                r_hist * scale,
                s_hist * scale,
                config.local_fanout,
                config.target_partition_tuples,
            )
            received_logical = int(r_hist.sum() + s_hist.sum()) * scale
            pass_time = compute.partition_time(
                received_logical, config.tuple_bytes, passes=1
            )
            worst_passes = max(worst_passes, passes)
            worst_total = max(worst_total, pass_time * passes)
        return worst_passes, worst_total

    def _probe(
        self,
        data: DistributedData,
        gpu_ids: tuple[int, ...],
        num_partitions: int,
        local_passes: int,
        scale: int,
    ) -> tuple[int, dict[int, int], float, str | None]:
        config = self.config
        compute = config.compute
        global_bits = int(np.log2(num_partitions))
        matches = 0
        per_gpu: dict[int, int] = {}
        probe_time = 0.0
        r_id_chunks: list[np.ndarray] = []
        s_id_chunks: list[np.ndarray] = []
        for gpu_id in gpu_ids:
            r_shard, s_shard = data.r[gpu_id], data.s[gpu_id]
            r_parts = refine(r_shard, global_bits, local_passes, config.local_fanout)
            s_parts = refine(s_shard, global_bits, local_passes, config.local_fanout)
            result = probe_partitions(
                r_parts,
                s_parts,
                materialize=config.materialize,
                observer=self.observer,
            )
            if self.observer is not None:
                metrics = self.observer.metrics
                metrics.counter("probe.matches", gpu=gpu_id).inc(result.matches)
                metrics.counter("probe.copartitions", gpu=gpu_id).inc(
                    result.buckets_probed
                )
            if config.materialize and result.r_ids is not None:
                r_id_chunks.append(result.r_ids)
                s_id_chunks.append(result.s_ids)
            per_gpu[gpu_id] = result.matches
            matches += result.matches
            probe_time = max(
                probe_time,
                compute.probe_time(
                    len(r_shard) * scale,
                    len(s_shard) * scale,
                    result.matches * scale,
                    config.tuple_bytes,
                ),
            )
        match_digest = None
        if config.materialize:
            empty = np.empty(0, dtype=np.uint32)
            match_digest = canonical_match_digest(
                np.concatenate(r_id_chunks) if r_id_chunks else empty,
                np.concatenate(s_id_chunks) if s_id_chunks else empty,
            )
        return matches, per_gpu, probe_time, match_digest


def _single_gpu_assignment(histograms: HistogramSet) -> PartitionAssignment:
    """Everything already lives on the only GPU: nothing moves."""
    num_partitions = histograms.num_partitions
    return PartitionAssignment(
        gpu_ids=histograms.gpu_ids,
        owners=[(0,)] * num_partitions,
        broadcast_side=np.zeros(num_partitions, dtype=np.int8),
        move_cost=0.0,
    )
