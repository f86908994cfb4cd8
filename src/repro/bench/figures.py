"""One entry point per figure of the paper's evaluation (§5).

Every function reruns the corresponding experiment on the simulated
DGX-1 and returns a :class:`FigureResult` whose rows mirror the
figure's series.  Absolute numbers come from our calibrated simulator;
the *shapes* (who wins, by what factor, where the crossovers are) are
the reproduction targets, and the benchmark drivers assert them.
"""

from __future__ import annotations

from repro.baselines import DPRJJoin, UMJJoin
from repro.bench.harness import (
    BENCH_REAL_TUPLES,
    PAPER_TUPLES_PER_GPU,
    FigureResult,
    bench_workload,
)
from repro.core import MGJoin, MGJoinConfig
from repro.core.assignment import assign_partitions
from repro.core.compression import shard_compression_model
from repro.core.global_partition import plan_flows
from repro.core.histogram import build_histograms, max_partitions
from repro.obs import Observer
from repro.relational import (
    DPRJQueryEngine,
    MGJoinQueryEngine,
    OmnisciCpuEngine,
    OmnisciGpuEngine,
)
from repro.relational.tpch import generate_tpch, run_query
from repro.routing import (
    AdaptiveArmPolicy,
    BandwidthPolicy,
    CentralizedPolicy,
    DirectPolicy,
    HopCountPolicy,
    LatencyPolicy,
)
from repro.sim import FlowMatrix, ShuffleConfig, ShuffleSimulator
from repro.sim.compute import V100
from repro.topology import dgx1_topology
from repro.topology.links import KB, MB, LinkSpec, LinkType, effective_bandwidth

STATIC_POLICIES = (BandwidthPolicy, HopCountPolicy, LatencyPolicy)
TUPLE_BYTES = 8


def _machine():
    return dgx1_topology()


def _uniform_flows(gpu_ids: tuple[int, ...], tuples_per_gpu: int) -> FlowMatrix:
    """The distribution step's traffic under uniform data: each GPU
    holds 2 x ``tuples_per_gpu`` tuples and keeps 1/G of them."""
    num_gpus = len(gpu_ids)
    total_bytes_per_gpu = 2 * tuples_per_gpu * TUPLE_BYTES
    per_flow = total_bytes_per_gpu // num_gpus
    return FlowMatrix.all_to_all(gpu_ids, per_flow)


def _assignment_flows(
    gpu_ids: tuple[int, ...],
    placement_zipf: float = 0.0,
    logical_tuples_per_gpu: int = PAPER_TUPLES_PER_GPU,
    real_tuples_per_gpu: int = BENCH_REAL_TUPLES,
    compression: bool = True,
) -> FlowMatrix:
    """Distribution flows as MG-Join would actually plan them."""
    machine = _machine()
    workload = bench_workload(
        gpu_ids,
        logical_tuples_per_gpu=logical_tuples_per_gpu,
        real_tuples_per_gpu=real_tuples_per_gpu,
        placement_zipf=placement_zipf,
    )
    partitions = max_partitions(V100)
    histograms = build_histograms(workload.r, workload.s, partitions)
    assignment = assign_partitions(histograms, machine)
    model = shard_compression_model(
        workload.r.shard(gpu_ids[0]), partitions, compression
    )
    return plan_flows(histograms, assignment, model, workload.logical_scale)


# ---------------------------------------------------------------------------
# Figure 1 — motivation: UMJ / DPRJ cycles per tuple, 1-8 GPUs
# ---------------------------------------------------------------------------

def fig01_motivation(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 1",
        "Join performance and execution-time breakdown of partitioned "
        "hash joins on the DGX-1 (GPU cycles / tuple)",
    )
    machine = _machine()
    for num_gpus in (1, 2, 4, 8):
        workload = bench_workload(
            tuple(range(num_gpus)), real_tuples_per_gpu=real_tuples
        )
        for algo in (DPRJJoin(machine), UMJJoin(machine)):
            run = algo.run(workload)
            transfer_share = run.breakdown.distribution_share
            result.add(
                algorithm=run.algorithm,
                gpus=num_gpus,
                cycles_per_tuple=run.cycles_per_tuple,
                transfer_cycles=run.cycles_per_tuple * transfer_share,
                compute_cycles=run.cycles_per_tuple * (1 - transfer_share),
                transfer_share=transfer_share,
            )
    result.note(
        "Paper: both baselines scale poorly; DPRJ's transfer share grows "
        "to ~66%, UMJ on 8 GPUs is slower than on 1."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 4 — link throughput vs packet size
# ---------------------------------------------------------------------------

def fig04_packet_size() -> FigureResult:
    result = FigureResult(
        "Figure 4", "NVLink / PCIe throughput for varying packet sizes"
    )
    from repro.topology.nodes import gpu, switch

    nvlink = LinkSpec(0, gpu(0), gpu(1), LinkType.NVLINK)
    pcie = LinkSpec(1, gpu(0), switch(0), LinkType.PCIE)
    size = 2 * KB
    while size <= 16 * MB:
        result.add(
            packet_kb=size // KB,
            nvlink_gbps=effective_bandwidth(nvlink, size) / 1e9,
            pcie_gbps=effective_bandwidth(pcie, size) / 1e9,
        )
        size *= 2
    result.note(
        "Paper: both links degrade up to ~20x for tiny packets and "
        "saturate around 12 MB."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 5 — static routing policies vs configuration / packet size / skew
# ---------------------------------------------------------------------------

def fig05a_hw_config(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 5a", "Static-policy distribution cost vs hardware configuration"
    )
    machine = _machine()
    total_logical = 1024 * 1024 * 1024  # 1B tuples total (|R|=|S|=512M)
    for config in ((0, 3, 4), (0, 3, 4, 7), (0, 1, 2, 3, 4)):
        per_gpu = total_logical // (2 * len(config))
        flows = _uniform_flows(config, per_gpu)
        for policy_cls in STATIC_POLICIES:
            policy = policy_cls()
            report = ShuffleSimulator(machine, config).run(flows, policy)
            result.add(
                config="{" + ",".join(map(str, config)) + "}",
                policy=policy.name,
                time_ms=report.elapsed * 1e3,
                throughput_gbps=report.throughput / 1e9,
            )
    result.note("Paper: the winning static metric flips between configs.")
    return result


def fig05b_packet_skew(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 5b",
        "Static-policy distribution cost vs packet size and data skew "
        "(GPUs {0,3,4,7})",
    )
    machine = _machine()
    config = (0, 3, 4, 7)
    for packet_kb in (128, 512, 2048):
        for zipf in (0.0, 0.5, 1.0):
            flows = _assignment_flows(config, placement_zipf=zipf,
                                      real_tuples_per_gpu=real_tuples)
            shuffle_config = ShuffleConfig(packet_size=packet_kb * KB)
            for policy_cls in STATIC_POLICIES:
                policy = policy_cls()
                report = ShuffleSimulator(machine, config, shuffle_config).run(
                    flows, policy
                )
                result.add(
                    packet_kb=packet_kb,
                    zipf=zipf,
                    policy=policy.name,
                    time_ms=report.elapsed * 1e3,
                )
    result.note("Paper: no static policy wins across packet sizes and skews.")
    return result


# ---------------------------------------------------------------------------
# Figure 6 — multi-hop vs direct routing throughput
# ---------------------------------------------------------------------------

def fig06_multihop(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 6",
        "Distribution throughput: MG-Join multi-hop vs DPRJ direct routing",
    )
    machine = _machine()
    for num_gpus in range(2, 9):
        gpu_ids = tuple(range(num_gpus))
        flows = _uniform_flows(gpu_ids, PAPER_TUPLES_PER_GPU)
        for policy in (DirectPolicy(), AdaptiveArmPolicy()):
            report = ShuffleSimulator(machine, gpu_ids).run(flows, policy)
            result.add(
                gpus=num_gpus,
                policy="dprj-direct" if policy.name == "direct" else "mg-join",
                throughput_gbps=report.throughput / 1e9,
                elapsed_ms=report.elapsed * 1e3,
            )
    result.note("Paper: multi-hop beats direct by up to 2.35x at 8 GPUs.")
    return result


# ---------------------------------------------------------------------------
# Figure 7 — adaptive vs static routing throughput
# ---------------------------------------------------------------------------

def fig07_adaptive(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 7", "Distribution throughput: adaptive vs static policies"
    )
    machine = _machine()
    for num_gpus in range(2, 9):
        gpu_ids = tuple(range(num_gpus))
        flows = _uniform_flows(gpu_ids, PAPER_TUPLES_PER_GPU)
        for policy in (
            BandwidthPolicy(),
            HopCountPolicy(),
            LatencyPolicy(),
            AdaptiveArmPolicy(),
        ):
            report = ShuffleSimulator(machine, gpu_ids).run(flows, policy)
            result.add(
                gpus=num_gpus,
                policy=policy.name,
                throughput_gbps=report.throughput / 1e9,
            )
    result.note(
        "Paper: adaptive routing beats bandwidth/hop-count/latency "
        "statics by up to 5.37x / 3.45x / 2.64x as GPUs increase."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 8 — bisection-bandwidth utilization
# ---------------------------------------------------------------------------

def fig08_utilization(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 8", "Interconnect bisection-bandwidth utilization"
    )
    machine = _machine()
    for num_gpus in (4, 6, 8):
        gpu_ids = tuple(range(num_gpus))
        flows = _uniform_flows(gpu_ids, PAPER_TUPLES_PER_GPU)
        for label, policy in (
            ("dprj", DirectPolicy()),
            ("mg-join", AdaptiveArmPolicy()),
        ):
            report = ShuffleSimulator(machine, gpu_ids).run(flows, policy)
            result.add(
                algorithm=label,
                gpus=num_gpus,
                utilization_pct=report.bisection_utilization * 100.0,
            )
    result.note(
        "Paper: DPRJ drops toward 30% as GPUs grow; MG-Join reaches ~97%."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 9 — routing policies under placement skew
# ---------------------------------------------------------------------------

def fig09_skew(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 9",
        "Normalized distribution performance under Zipf placement skew "
        "(8 GPUs)",
    )
    machine = _machine()
    gpu_ids = tuple(range(8))
    policies = (
        BandwidthPolicy(),
        HopCountPolicy(),
        LatencyPolicy(),
        AdaptiveArmPolicy(),
    )
    baseline: dict[str, float] = {}
    for zipf in (0.0, 0.25, 0.5, 0.75, 1.0):
        flows = _assignment_flows(
            gpu_ids, placement_zipf=zipf, real_tuples_per_gpu=real_tuples
        )
        for policy in policies:
            report = ShuffleSimulator(machine, gpu_ids).run(flows, policy)
            throughput = report.throughput
            if zipf == 0.0:
                baseline[policy.name] = throughput
            result.add(
                zipf=zipf,
                policy=policy.name,
                throughput_gbps=throughput / 1e9,
                normalized=throughput / baseline[policy.name],
            )
    result.note(
        "Paper: statics degrade up to 3x with skew; adaptive degrades least."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — decentralized adaptive vs centralized (MGJ-Baseline)
# ---------------------------------------------------------------------------

def fig10_centralized(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 10",
        "Distribution cost per tuple: MG-Join vs centralized MGJ-Baseline",
    )
    machine = _machine()
    for num_gpus in (2, 4, 8):
        gpu_ids = tuple(range(num_gpus))
        flows = _assignment_flows(gpu_ids, real_tuples_per_gpu=real_tuples)
        logical_tuples = 2 * PAPER_TUPLES_PER_GPU * num_gpus
        simulator = ShuffleSimulator(machine, gpu_ids)
        adaptive = simulator.run(flows, AdaptiveArmPolicy())
        transfer_only = simulator.run(flows, CentralizedPolicy(0.0))
        full = simulator.run(flows, CentralizedPolicy())
        to_ps = 1e12 / logical_tuples
        result.add(
            gpus=num_gpus,
            mg_join_ps=adaptive.elapsed * to_ps,
            baseline_transfer_ps=transfer_only.elapsed * to_ps,
            baseline_sync_ps=max(0.0, full.elapsed - transfer_only.elapsed)
            * to_ps,
            baseline_total_ps=full.elapsed * to_ps,
        )
    result.note(
        "Paper: centralized transfer is up to ~3% better, but sync makes "
        "it up to 1.5x worse overall."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — end-to-end join throughput, 1-8 GPUs
# ---------------------------------------------------------------------------

def fig11_join_throughput(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 11", "Join throughput of UMJ / DPRJ / MG-Join (B tuples/s)"
    )
    machine = _machine()
    for num_gpus in range(1, 9):
        workload = bench_workload(
            tuple(range(num_gpus)), real_tuples_per_gpu=real_tuples
        )
        for algo in (UMJJoin(machine), DPRJJoin(machine), MGJoin(machine)):
            run = algo.run(workload)
            result.add(
                algorithm=run.algorithm,
                gpus=num_gpus,
                throughput_btps=run.throughput / 1e9,
                total_ms=run.total_time * 1e3,
            )
    result.note(
        "Paper: MG-Join scales near-linearly (7.2x at 8 GPUs) and beats "
        "DPRJ by up to 2.5x and UMJ by ~10x."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 12 — execution-time breakdown
# ---------------------------------------------------------------------------

def fig12_breakdown(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    result = FigureResult(
        "Figure 12",
        "Execution-time breakdown (data distribution vs computation)",
    )
    machine = _machine()
    for num_gpus in range(2, 9):
        workload = bench_workload(
            tuple(range(num_gpus)), real_tuples_per_gpu=real_tuples
        )
        for algorithm in (DPRJJoin, MGJoin):
            # Keep the full-machine runs' telemetry (per-link bytes,
            # route decisions, skew handling) next to the figure.
            observer = Observer() if num_gpus == 8 else None
            run = algorithm(machine, observer=observer).run(workload)
            if observer is not None:
                label = f"{run.algorithm}-8gpus"
                result.metric_snapshots[label] = observer.metrics.snapshot()
            share = run.breakdown.distribution_share
            result.add(
                algorithm=run.algorithm,
                gpus=num_gpus,
                distribution_pct=share * 100.0,
                computation_pct=(1 - share) * 100.0,
            )
    result.note(
        "Paper: DPRJ spends up to 72% of its time moving data; MG-Join "
        "at most ~35% and <20% at 8 GPUs."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 13 — throughput vs total input size on 8 GPUs
# ---------------------------------------------------------------------------

def fig13_input_size(real_tuples: int = 1 << 15) -> FigureResult:
    result = FigureResult(
        "Figure 13", "Join throughput vs total input size on 8 GPUs"
    )
    machine = _machine()
    gpu_ids = tuple(range(8))
    for total_m in (512, 1024, 1536, 2048, 3072, 4096):
        per_gpu_per_relation = total_m * 1024 * 1024 // 16
        workload = bench_workload(
            gpu_ids,
            logical_tuples_per_gpu=per_gpu_per_relation,
            real_tuples_per_gpu=real_tuples,
        )
        for algo in (UMJJoin(machine), DPRJJoin(machine), MGJoin(machine)):
            run = algo.run(workload)
            result.add(
                algorithm=run.algorithm,
                total_m_tuples=total_m,
                throughput_btps=run.throughput / 1e9,
            )
    result.note(
        "Paper: MG-Join wins at every size; overall 10.2x over UMJ and "
        "3.6x over DPRJ."
    )
    return result


# ---------------------------------------------------------------------------
# Figure 14 — TPC-H at SF 250
# ---------------------------------------------------------------------------

def fig14_tpch(
    real_scale_factor: float = 0.01, logical_scale_factor: float = 250.0
) -> FigureResult:
    result = FigureResult(
        "Figure 14",
        f"TPC-H queries at SF {logical_scale_factor:.0f}: OmniSci CPU/GPU "
        "vs DPRJ vs MG-Join (seconds)",
    )
    machine = _machine()
    database = generate_tpch(scale_factor=real_scale_factor)
    scale = logical_scale_factor / real_scale_factor
    engines = (
        OmnisciCpuEngine(machine, logical_scale=scale),
        OmnisciGpuEngine(machine, logical_scale=scale),
        DPRJQueryEngine(machine, logical_scale=scale),
        MGJoinQueryEngine(machine, logical_scale=scale),
    )
    for query in ("q3", "q5", "q10", "q12", "q14", "q19"):
        row: dict = {"query": query}
        for engine in engines:
            outcome = run_query(query, engine, database)
            row[engine.name] = "NA" if outcome.is_na else round(outcome.seconds, 3)
        result.add(**row)
    result.note(
        "Paper: OmniSci GPU fails (NA) on Q3/Q5/Q10/Q12 at SF 250; "
        "MG-Join beats OmniSci GPU by up to 4.5x and OmniSci CPU by ~25x."
    )
    return result


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ---------------------------------------------------------------------------

def ablation_packet_batch(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    """Packet-size x batch-size sweep around the paper's 2 MB / 8 choice."""
    result = FigureResult(
        "Ablation packet/batch", "Distribution time vs packet and batch size"
    )
    machine = _machine()
    gpu_ids = tuple(range(8))
    flows = _uniform_flows(gpu_ids, PAPER_TUPLES_PER_GPU // 4)
    for packet_kb in (256, 1024, 2048, 8192):
        for batch in (1, 4, 8, 16):
            config = ShuffleConfig(
                packet_size=packet_kb * KB,
                batch_size=batch,
                buffer_slots=max(64, batch),
            )
            report = ShuffleSimulator(machine, gpu_ids, config).run(
                flows, AdaptiveArmPolicy()
            )
            result.add(
                packet_kb=packet_kb, batch=batch, time_ms=report.elapsed * 1e3
            )
    return result


def ablation_dma_engines(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    """How many concurrent copy engines the design needs."""
    result = FigureResult(
        "Ablation DMA", "Distribution time vs per-GPU DMA engines"
    )
    machine = _machine()
    gpu_ids = tuple(range(8))
    flows = _uniform_flows(gpu_ids, PAPER_TUPLES_PER_GPU // 4)
    for dma in (1, 2, 3, 6, 8):
        config = ShuffleConfig(dma_engines=dma)
        report = ShuffleSimulator(machine, gpu_ids, config).run(
            flows, AdaptiveArmPolicy()
        )
        result.add(dma_engines=dma, time_ms=report.elapsed * 1e3)
    return result


def ablation_route_cap(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    """Effect of the <=3 intermediate-hop cap (paper §4.2.2)."""
    result = FigureResult(
        "Ablation route cap", "Distribution time vs max intermediate hops"
    )
    machine = _machine()
    gpu_ids = tuple(range(8))
    flows = _uniform_flows(gpu_ids, PAPER_TUPLES_PER_GPU // 4)
    for cap in (0, 1, 2, 3):
        config = ShuffleConfig(max_intermediates=cap)
        report = ShuffleSimulator(machine, gpu_ids, config).run(
            flows, AdaptiveArmPolicy()
        )
        result.add(
            max_intermediates=cap,
            time_ms=report.elapsed * 1e3,
            average_hops=report.average_hops,
        )
    return result


def ablation_compression(real_tuples: int = BENCH_REAL_TUPLES) -> FigureResult:
    """Traffic compression on/off (paper §5.1: 1.3x-2x ratios)."""
    result = FigureResult(
        "Ablation compression", "End-to-end join with compression on/off"
    )
    machine = _machine()
    workload = bench_workload(tuple(range(8)), real_tuples_per_gpu=real_tuples)
    for enabled in (True, False):
        config = MGJoinConfig(compression=enabled)
        run = MGJoin(machine, config).run(workload)
        result.add(
            compression=enabled,
            throughput_btps=run.throughput / 1e9,
            compression_ratio=run.compression_ratio,
            distribution_ms=(
                run.shuffle_report.elapsed * 1e3 if run.shuffle_report else 0.0
            ),
        )
    return result


def ablation_histogram_partitions(
    real_tuples: int = BENCH_REAL_TUPLES,
) -> FigureResult:
    """P_max vs smaller partition counts (paper §3.2, Eq. 1 discussion)."""
    result = FigureResult(
        "Ablation partitions", "End-to-end join vs global partition count"
    )
    machine = _machine()
    workload = bench_workload(tuple(range(8)), real_tuples_per_gpu=real_tuples)
    for partitions in (256, 1024, 4096):
        config = MGJoinConfig(num_partitions=partitions)
        run = MGJoin(machine, config).run(workload)
        result.add(
            partitions=partitions,
            throughput_btps=run.throughput / 1e9,
            local_passes=run.local_passes,
        )
    return result


ALL_FIGURES = {
    "fig01": fig01_motivation,
    "fig04": fig04_packet_size,
    "fig05a": fig05a_hw_config,
    "fig05b": fig05b_packet_skew,
    "fig06": fig06_multihop,
    "fig07": fig07_adaptive,
    "fig08": fig08_utilization,
    "fig09": fig09_skew,
    "fig10": fig10_centralized,
    "fig11": fig11_join_throughput,
    "fig12": fig12_breakdown,
    "fig13": fig13_input_size,
    "fig14": fig14_tpch,
}
