"""Perf-regression gate: committed baselines, 10% tolerance.

The reproduction's headline numbers — distribution throughput,
bisection utilization, ARM decision regret, end-to-end join
throughput — are all produced by a deterministic simulation, so any
drift between two commits is a *code* change, not noise.  This module
turns that into a CI gate:

* :func:`collect_perf_metrics` runs the canonical workload (a skewed
  8-GPU shuffle on the DGX-1 plus a small end-to-end MG-Join) and
  returns the metric dict.
* :func:`write_baseline` persists it as a ``BENCH_<name>.json`` file
  (committed to the repository) with a run-metadata header.
* :func:`compare` diffs a fresh collection against the committed
  baseline and flags any **gated** metric that moved in its bad
  direction by more than ``tolerance`` (default 10%).

Metrics carry a direction tag: ``higher`` is better (throughput),
``lower`` is better (elapsed time, regret), and ``track`` is recorded
for trend visibility but never fails the gate (e.g. per-direction
bisection splits, whose "good" value depends on the workload shape).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.obs import run_metadata
from repro.obs.analyze import ObservedRun
from repro.routing import AdaptiveArmPolicy, DirectPolicy
from repro.sim import FlowMatrix, ShuffleSimulator

#: Default tolerance: a gated metric may move up to this fraction in
#: its bad direction before the gate fails (issue: ">10% regression").
DEFAULT_TOLERANCE = 0.10

#: Direction tag per metric.  ``higher``/``lower`` gate; ``track`` is
#: informational only.
METRIC_DIRECTIONS: dict[str, str] = {
    "shuffle.throughput_gbps": "higher",
    "shuffle.elapsed_ms": "lower",
    "shuffle.bisection_utilization": "higher",
    "shuffle.bisection_utilization_ab": "track",
    "shuffle.bisection_utilization_ba": "track",
    "arm.mean_regret_us": "lower",
    "arm.p50_regret_us": "lower",
    "arm.p95_regret_us": "lower",
    "arm.p99_regret_us": "lower",
    "arm.optimal_share": "higher",
    "arm.direct_mean_regret_us": "track",
    "join.throughput_btps": "higher",
    "perf.self_time_seconds": "lower",
    "conformance.count": "track",
    "conformance.drift_ratio": "lower",
    "conformance.residual_mean_us": "track",
    "conformance.residual_p50_us": "track",
    "conformance.residual_p95_us": "track",
    "conformance.residual_p99_us": "track",
    "conformance.abs_residual_p95_us": "lower",
    "conformance.underprediction_share": "track",
}

#: Per-metric tolerance overrides.  Wall-clock self-time is the one
#: metric that is *not* deterministic simulation output, so it gets a
#: generous 50% band — wide enough that shared-CI noise never flakes
#: the gate, tight enough to catch a real hot-path regression.
METRIC_TOLERANCES: dict[str, float] = {
    "perf.self_time_seconds": 0.50,
    # Tail-regret percentiles interpolate between few decision samples,
    # so tiny decision-order shifts move them more than the mean; give
    # the tails a wider (but still gating) band than the default 10%.
    "arm.p50_regret_us": 0.25,
    "arm.p99_regret_us": 0.25,
}

MB = 1024 * 1024


@dataclass(frozen=True)
class PerfWorkload:
    """One canonical perf-gate workload (topology + scale + baseline).

    Every workload runs the same metric collection — adaptive/direct
    audited shuffles plus a small end-to-end MG-Join — on its own
    machine, and gates against its own committed ``BENCH_<name>.json``
    baseline with an independent ``perf.self_time_seconds`` budget.
    """

    name: str
    #: Key into the topology factory table below.
    topology: str
    num_gpus: int
    seed: int = 42


def _perf_machine(workload: "PerfWorkload"):
    from repro.topology import dgx1_topology, dgx2_topology, multi_node_dgx1

    factories = {
        "dgx1": dgx1_topology,
        "dgx2": dgx2_topology,
        "dgx1x2": lambda: multi_node_dgx1(2),
    }
    return factories[workload.topology]()


#: The gated perf workloads.  ``dgx1-8gpu`` is the historical default;
#: ``dgx2-16gpu`` exercises the NVSwitch fabric and ``multinode`` the
#: two-box NIC path, both at 16 GPUs.
PERF_WORKLOADS: dict[str, PerfWorkload] = {
    "dgx1-8gpu": PerfWorkload(name="dgx1-8gpu", topology="dgx1", num_gpus=8),
    "dgx2-16gpu": PerfWorkload(name="dgx2-16gpu", topology="dgx2", num_gpus=16),
    "multinode": PerfWorkload(name="multinode", topology="dgx1x2", num_gpus=16),
}


def skewed_flows(gpu_ids: tuple[int, ...], hot_gpu: int | None = None,
                 hot_bytes: int = 48 * MB, base_bytes: int = 8 * MB) -> FlowMatrix:
    """All-to-all traffic with one hot receiver (paper §5.2 skew shape)."""
    if hot_gpu is None:
        hot_gpu = gpu_ids[0]
    flows = FlowMatrix()
    for src in gpu_ids:
        for dst in gpu_ids:
            if src == dst:
                continue
            flows.add(src, dst, hot_bytes if dst == hot_gpu else base_bytes)
    return flows


def collect_perf_metrics(
    num_gpus: int | None = None,
    seed: int | None = None,
    include_self_time: bool = True,
    workload: str | PerfWorkload = "dgx1-8gpu",
) -> dict[str, float]:
    """Run one canonical perf workload and return the metric dict.

    ``workload`` names an entry of :data:`PERF_WORKLOADS` (or is one);
    ``num_gpus`` / ``seed`` default to the workload's own values, and
    the historical ``dgx1-8gpu`` defaults produce exactly the metric
    dict this function always produced.

    Everything downstream of the RNG seed is deterministic, so two
    collections on the same code produce identical values — except
    ``perf.self_time_seconds``, the wall-clock cost of this collection
    itself, which gates hot-path performance (with a wide tolerance)
    rather than simulation output.  Pass ``include_self_time=False``
    for a fully deterministic dict.
    """
    import time

    from repro.core import MGJoin
    from repro.workloads import WorkloadSpec, generate_workload

    if isinstance(workload, str):
        try:
            workload = PERF_WORKLOADS[workload]
        except KeyError:
            raise ValueError(
                f"unknown perf workload {workload!r};"
                f" have {sorted(PERF_WORKLOADS)}"
            ) from None
    if num_gpus is None:
        num_gpus = workload.num_gpus
    if seed is None:
        seed = workload.seed

    started = time.perf_counter()
    machine = _perf_machine(workload)
    gpu_ids = tuple(machine.gpu_ids[:num_gpus])

    adaptive = ObservedRun(conformance=True)
    adaptive_report = ShuffleSimulator(machine, gpu_ids, **adaptive.wiring).run(
        skewed_flows(gpu_ids), AdaptiveArmPolicy()
    )
    adaptive_audit = adaptive.audit(machine)
    direct = ObservedRun()
    ShuffleSimulator(machine, gpu_ids, **direct.wiring).run(
        skewed_flows(gpu_ids), DirectPolicy()
    )

    workload = generate_workload(
        WorkloadSpec(
            gpu_ids=gpu_ids,
            logical_tuples_per_gpu=512 * MB,
            real_tuples_per_gpu=64 * 1024,
            key_zipf=0.5,
            seed=seed,
        )
    )
    join_result = MGJoin(machine, policy=AdaptiveArmPolicy()).run(workload)

    metrics = {
        "shuffle.throughput_gbps": adaptive_report.throughput / 1e9,
        "shuffle.elapsed_ms": adaptive_report.elapsed * 1e3,
        "shuffle.bisection_utilization": adaptive_report.bisection_utilization,
        "shuffle.bisection_utilization_ab": adaptive_report.bisection_utilization_ab,
        "shuffle.bisection_utilization_ba": adaptive_report.bisection_utilization_ba,
        "arm.mean_regret_us": adaptive_audit.mean_regret * 1e6,
        "arm.p50_regret_us": adaptive_audit.percentile_regret(50) * 1e6,
        "arm.p95_regret_us": adaptive_audit.percentile_regret(95) * 1e6,
        "arm.p99_regret_us": adaptive_audit.percentile_regret(99) * 1e6,
        "arm.optimal_share": adaptive_audit.optimal_share,
        "arm.direct_mean_regret_us": direct.audit(machine).mean_regret * 1e6,
        "join.throughput_btps": join_result.throughput / 1e9,
    }
    # Cost-model conformance over the canonical adaptive shuffle: gated
    # on drift_ratio / |residual| p95, tracked on the residual shape.
    metrics.update(adaptive.observer.conformance.gauges())
    if include_self_time:
        metrics["perf.self_time_seconds"] = time.perf_counter() - started
    return metrics


# ---------------------------------------------------------------------------
# Baseline files
# ---------------------------------------------------------------------------


def baseline_path(name: str = "dgx1-8gpu",
                  root: str | pathlib.Path | None = None) -> pathlib.Path:
    """``BENCH_<name>.json`` under ``root`` (default: repository root)."""
    if root is None:
        root = pathlib.Path(__file__).resolve().parents[3]
    return pathlib.Path(root) / f"BENCH_{name}.json"


def write_baseline(
    path: str | pathlib.Path,
    metrics: dict[str, float],
    metadata: dict | None = None,
) -> pathlib.Path:
    path = pathlib.Path(path)
    payload = {
        "run": metadata if metadata is not None else run_metadata(),
        "directions": {
            name: METRIC_DIRECTIONS.get(name, "track") for name in sorted(metrics)
        },
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def load_baseline(path: str | pathlib.Path) -> dict:
    payload = json.loads(pathlib.Path(path).read_text())
    if "metrics" not in payload or not isinstance(payload["metrics"], dict):
        raise ValueError(f"{path}: not a BENCH baseline (no 'metrics' object)")
    return payload


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricComparison:
    """One metric's baseline-vs-current verdict."""

    name: str
    direction: str
    baseline: float
    current: float
    #: Per-metric tolerance override; ``None`` = use the gate default.
    tolerance: float | None = None

    @property
    def change(self) -> float:
        """Signed relative change; +0.2 means current is 20% above."""
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    def regressed(self, tolerance: float) -> bool:
        if self.tolerance is not None:
            tolerance = self.tolerance
        if self.direction == "higher":
            return self.change < -tolerance
        if self.direction == "lower":
            return self.change > tolerance
        return False  # "track" never gates


@dataclass
class GateResult:
    """Outcome of one baseline-vs-current gate run."""

    tolerance: float
    comparisons: list[MetricComparison] = field(default_factory=list)
    #: Gated metrics in the baseline but missing from the collection
    #: (a silent drop must fail the gate, not pass by omission).
    missing: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.regressed(self.tolerance)]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        lines = [
            f"perf gate (tolerance {self.tolerance:.0%}):"
            f" {'PASS' if self.ok else 'FAIL'}"
        ]
        width = max((len(c.name) for c in self.comparisons), default=10)
        for comp in self.comparisons:
            change = comp.change
            flag = "  REGRESSION" if comp.regressed(self.tolerance) else ""
            tag = "" if comp.direction != "track" else " (track)"
            if comp.tolerance is not None:
                tag += f" (tol {comp.tolerance:.0%})"
            lines.append(
                f"  {comp.name:<{width}}  {comp.baseline:12.4f} ->"
                f" {comp.current:12.4f}  {change:+8.1%}{tag}{flag}"
            )
        for name in self.missing:
            lines.append(f"  {name:<{width}}  MISSING from current collection")
        return "\n".join(lines) + "\n"


def compare(
    baseline_metrics: dict[str, float],
    current_metrics: dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
    directions: dict[str, str] | None = None,
    tolerances: dict[str, float] | None = None,
) -> GateResult:
    """Diff current metrics against the baseline under the tolerance.

    ``tolerances`` maps metric names to per-metric tolerance overrides
    (default :data:`METRIC_TOLERANCES`): wall-clock metrics get a wider
    band than deterministic simulation outputs.
    """
    if directions is None:
        directions = METRIC_DIRECTIONS
    if tolerances is None:
        tolerances = METRIC_TOLERANCES
    result = GateResult(tolerance=tolerance)
    for name in sorted(baseline_metrics):
        direction = directions.get(name, "track")
        if name not in current_metrics:
            if direction != "track":
                result.missing.append(name)
            continue
        result.comparisons.append(
            MetricComparison(
                name=name,
                direction=direction,
                baseline=float(baseline_metrics[name]),
                current=float(current_metrics[name]),
                tolerance=tolerances.get(name),
            )
        )
    return result


def run_gate(
    path: str | pathlib.Path | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    current: dict[str, float] | None = None,
    workload: str | PerfWorkload = "dgx1-8gpu",
) -> GateResult:
    """Collect fresh metrics and gate them against the baseline file."""
    if path is None:
        path = baseline_path(
            workload if isinstance(workload, str) else workload.name
        )
    payload = load_baseline(path)
    if current is None:
        current = collect_perf_metrics(workload=workload)
    directions = dict(METRIC_DIRECTIONS)
    directions.update(payload.get("directions", {}))
    return compare(
        payload["metrics"], current, tolerance=tolerance, directions=directions
    )


def run_gate_from_store(
    store,
    run_id: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    current: dict[str, float] | None = None,
    workload: str | PerfWorkload = "dgx1-8gpu",
) -> tuple[GateResult, str]:
    """Gate fresh metrics against a baseline read *through the store*.

    ``store`` is a :class:`repro.experiments.ResultsStore`; the
    baseline is ``run_id`` (prefixes allowed) or the latest ``perf``
    record in the ledger.  The committed ``BENCH_*.json`` file joins
    the ledger via ``repro experiments ingest``, making the file one
    view over the store rather than the gate's private input.  Returns
    ``(result, baseline_run_id)``.
    """
    from repro.experiments.store import StoreError

    if run_id is not None:
        record = store.get(run_id)
    else:
        record = store.latest(kind="perf")
        if record is None:
            raise StoreError(
                f"no 'perf' baseline record in store {store.root}; run"
                " 'repro experiments ingest BENCH_*.json' or"
                " 'repro perf --update --store ...' first"
            )
    if current is None:
        current = collect_perf_metrics(workload=workload)
    directions = dict(METRIC_DIRECTIONS)
    directions.update(record.directions)
    result = compare(
        record.metrics, current, tolerance=tolerance, directions=directions
    )
    return result, record.run_id
