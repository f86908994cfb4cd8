"""The sweep harness: parameterized batches into the results store.

MG-Join's evaluation (Figs. 4-14) is one big topology x policy x
scale sweep; the chaos matrix adds a fault-plan axis.  This module
gives those a shared engine:

* :class:`SweepPoint` — one fully specified run (topology, routing
  policy, GPU count, optional fault preset, workload knobs).
* :func:`parse_sweep` — ``key=value[,value...]`` tokens (the CLI's
  ``--sweep topology=dgx1 policy=adaptive,static scale=2``) expanded
  into the cartesian product of points.
* :func:`run_one` — execute one point under a fresh observer inside
  its deterministic :func:`~repro.obs.meta.run_scope`, derive the
  record (metrics + directions + span self-time phases + busiest
  links + fault telemetry) and persist it.
* :func:`run_batch` — fan points over a :mod:`multiprocessing` pool
  (sharing the bench runner's on-disk workload cache), emitting
  structured progress events while the sweep is live; records are
  committed to the store by the parent, in completion order.

Workers return record payloads instead of writing to the store
directly, so ledger appends are single-writer and progress events
stream from one place.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.experiments.store import ResultsStore, RunRecord
from repro.obs import Observer
from repro.obs.export import record_self_time_gauges
from repro.obs.meta import run_id_for, run_metadata, run_scope
from repro.routing import POLICIES, BandwidthPolicy
from repro.topology import MACHINES
from repro.workloads.generator import round_logical_tuples

#: Links kept in a record's busiest-link breakdown.
TOP_LINKS = 12

#: Sweepable axes and their parsers; everything else is rejected so a
#: typo (``topolgy=dgx1``) fails fast instead of silently sweeping
#: nothing.
_AXIS_PARSERS: dict[str, Callable[[str], object]] = {
    "topology": str,
    "policy": str,
    "scale": int,
    "faults": lambda text: None if text in ("none", "") else text,
    "tuples_per_gpu": int,
    "real_tuples": int,
    "seed": int,
    "queries": int,
    "arrival": float,
}


class SweepError(ValueError):
    """A sweep specification could not be parsed or validated."""


@dataclass(frozen=True)
class SweepPoint:
    """One fully specified experiment in a sweep."""

    topology: str = "dgx1"
    policy: str = "adaptive"
    scale: int = 8
    faults: str | None = None
    tuples_per_gpu: int = 64 * 1024 * 1024
    real_tuples: int = 32 * 1024
    seed: int = 42
    #: > 1 turns the point into a serving-layer run: ``queries``
    #: concurrent joins multiplexed over one shared fabric, separated
    #: by ``arrival`` seconds (0 = all at the same instant).
    queries: int = 1
    arrival: float = 0.0

    def config(self) -> dict:
        """The JSON-able configuration that defines this point's ID."""
        return dataclasses.asdict(self)

    @property
    def run_kind(self) -> str:
        if self.queries > 1:
            return "serve"
        return "chaos" if self.faults else "join"

    @property
    def run_id(self) -> str:
        return run_id_for(self.run_kind, self.config())

    @property
    def label(self) -> str:
        parts = [self.topology, self.policy, f"{self.scale}gpu"]
        if self.queries > 1:
            parts.append(f"{self.queries}q")
        if self.faults:
            parts.append(self.faults)
        return "/".join(parts)


def parse_sweep(
    tokens: list[str], defaults: SweepPoint | None = None
) -> list[SweepPoint]:
    """``key=value[,value...]`` tokens -> the cartesian product of points.

    Axes not named keep the default point's value; repeated keys are
    rejected.  The expansion order is deterministic (itertools.product
    over the token order), so a sweep's point list — and therefore its
    run IDs — is reproducible from the command line alone.
    """
    defaults = defaults or SweepPoint()
    axes: dict[str, list] = {}
    for token in tokens:
        key, sep, values = token.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not values:
            raise SweepError(f"bad sweep token {token!r}; want key=v1[,v2,...]")
        if key not in _AXIS_PARSERS:
            raise SweepError(
                f"unknown sweep axis {key!r}; have {sorted(_AXIS_PARSERS)}"
            )
        if key in axes:
            raise SweepError(f"sweep axis {key!r} given twice")
        parser = _AXIS_PARSERS[key]
        try:
            axes[key] = [parser(value.strip()) for value in values.split(",")]
        except ValueError as exc:
            raise SweepError(f"bad value in {token!r}: {exc}") from exc
    if not axes:
        raise SweepError("empty sweep: name at least one axis (key=value)")
    keys = list(axes)
    points = [
        dataclasses.replace(defaults, **dict(zip(keys, combo)))
        for combo in itertools.product(*axes.values())
    ]
    seen: set[str] = set()
    unique = []
    for point in points:
        if point.run_id not in seen:
            seen.add(point.run_id)
            unique.append(point)
    return unique


# ---------------------------------------------------------------------------
# Running one point
# ---------------------------------------------------------------------------


#: "static" is the paper's shorthand for the static multi-hop
#: comparison policy (Figure 7); alias it to BandwidthPolicy.
SWEEP_POLICIES = {**POLICIES, "static": BandwidthPolicy}


def validate_point(point: SweepPoint) -> None:
    """Fail fast on a point naming an unknown machine/policy/preset."""
    if point.topology not in MACHINES:
        raise SweepError(
            f"unknown topology {point.topology!r}; have {sorted(MACHINES)}"
        )
    if point.policy not in SWEEP_POLICIES:
        raise SweepError(
            f"unknown policy {point.policy!r}; have {sorted(SWEEP_POLICIES)}"
        )
    if point.faults is not None:
        from repro.faults.plan import PRESET_NAMES

        if point.faults not in PRESET_NAMES:
            raise SweepError(
                f"unknown fault preset {point.faults!r}; have {PRESET_NAMES}"
            )
    if point.scale < 1:
        raise SweepError("scale (GPU count) must be >= 1")
    if point.queries < 1:
        raise SweepError("queries must be >= 1")
    if point.arrival < 0.0:
        raise SweepError("arrival (inter-arrival spacing, seconds) must be >= 0")


def _build_workload(point: SweepPoint, gpu_ids: tuple[int, ...]):
    from repro.bench.harness import bench_workload

    return bench_workload(
        gpu_ids,
        logical_tuples_per_gpu=round_logical_tuples(
            point.tuples_per_gpu, point.real_tuples
        ),
        real_tuples_per_gpu=point.real_tuples,
        seed=point.seed,
    )


def _link_breakdown(shuffle_report, top: int = TOP_LINKS) -> list[dict]:
    if shuffle_report is None:
        return []
    ranked = sorted(
        shuffle_report.link_stats.values(),
        key=lambda stats: stats.busy_time,
        reverse=True,
    )[:top]
    return [
        {
            "link": str(stats.spec),
            "bytes_sent": stats.bytes_sent,
            "busy_seconds": stats.busy_time,
            "transfers": stats.transfers,
        }
        for stats in ranked
    ]


def _join_metrics(result) -> tuple[dict, dict]:
    """Flat (metrics, directions) from one JoinResult."""
    metrics = {
        "join.throughput_btps": result.throughput / 1e9,
        "join.total_time_ms": result.total_time * 1e3,
        "join.matches_logical": float(result.matches_logical),
        "join.cycles_per_tuple": result.cycles_per_tuple,
    }
    directions = {
        "join.throughput_btps": "higher",
        "join.total_time_ms": "lower",
        "join.matches_logical": "track",
        "join.cycles_per_tuple": "lower",
    }
    for phase, seconds in result.breakdown.as_dict().items():
        name = f"phase.{phase}_ms"
        metrics[name] = seconds * 1e3
        directions[name] = "lower"
    report = result.shuffle_report
    if report is not None:
        metrics.update(
            {
                "shuffle.throughput_gbps": report.throughput / 1e9,
                "shuffle.elapsed_ms": report.elapsed * 1e3,
                "shuffle.bisection_utilization": report.bisection_utilization,
                "shuffle.average_hops": report.average_hops,
            }
        )
        directions.update(
            {
                "shuffle.throughput_gbps": "higher",
                "shuffle.elapsed_ms": "lower",
                "shuffle.bisection_utilization": "higher",
                "shuffle.average_hops": "track",
            }
        )
    return metrics, directions


def _run_serve_point(
    point: SweepPoint, machine, policy_cls, observer, telemetry: dict
) -> tuple[dict, dict]:
    """Execute a ``queries > 1`` point through the serving layer."""
    from repro.faults import run_chaos
    from repro.serve import QueryScheduler, synthetic_requests

    requests = synthetic_requests(
        point.queries,
        gpus=point.scale,
        tuples=point.real_tuples,
        arrival_spacing=point.arrival,
        seed=point.seed,
    )
    chaos = None
    if point.faults is None:
        report = QueryScheduler(
            machine,
            requests,
            policy_factory=policy_cls,
            max_in_flight=point.queries,
            observer=observer,
        ).run()
    else:
        chaos = run_chaos(
            machine,
            requests,
            point.faults,
            policy_factory=policy_cls,
            seed=point.seed,
            # Staggered arrivals legitimately lower the concurrency
            # peak, so only the all-at-once case gates on it.
            min_in_flight=point.queries if point.arrival == 0.0 else 1,
            observer=observer,
            strict=False,
        )
        report = chaos.serve
    latencies = [o.latency for o in report.outcomes if o.latency is not None]
    waits = [o.queue_wait for o in report.outcomes if o.queue_wait is not None]
    admitted = report.completed + report.failed
    metrics = {
        "serve.elapsed_ms": report.elapsed * 1e3,
        "serve.completed": float(report.completed),
        "serve.rejected": float(report.rejected),
        "serve.failed": float(report.failed),
        "serve.in_flight_peak": float(report.in_flight_peak),
        "serve.queue_peak": float(report.queue_peak),
        "serve.latency_max_ms": max(latencies, default=0.0) * 1e3,
        "serve.queue_wait_max_ms": max(waits, default=0.0) * 1e3,
        "serve.retention_ratio": (
            report.completed / admitted if admitted else 1.0
        ),
    }
    directions = {
        "serve.elapsed_ms": "lower",
        "serve.completed": "higher",
        "serve.rejected": "track",
        "serve.failed": "lower",
        "serve.in_flight_peak": "track",
        "serve.queue_peak": "track",
        "serve.latency_max_ms": "lower",
        "serve.queue_wait_max_ms": "lower",
        "serve.retention_ratio": "higher",
    }
    if chaos is not None:
        metrics["chaos.correct"] = 1.0 if chaos.correct else 0.0
        metrics["chaos.recovered_queries"] = float(len(chaos.recovered_queries))
        directions["chaos.correct"] = "higher"
        directions["chaos.recovered_queries"] = "track"
    telemetry["serve"] = {
        "statuses": {o.name: o.status for o in report.outcomes},
        "arbitration": report.arbitration,
    }
    return metrics, directions


def run_one(
    point: SweepPoint, store: ResultsStore | None = None
) -> RunRecord:
    """Execute one sweep point and build (optionally persist) its record.

    The run happens inside ``run_scope(point.run_id)``, so every
    artifact it produces — traces, figure JSON, anything a child
    process writes — carries the same deterministic run ID.
    """
    validate_point(point)
    machine = MACHINES[point.topology]()
    if point.scale > machine.num_gpus:
        raise SweepError(
            f"scale {point.scale} exceeds {point.topology}'s"
            f" {machine.num_gpus} GPUs"
        )
    gpu_ids = tuple(machine.gpu_ids[: point.scale])
    policy_cls = SWEEP_POLICIES[point.policy]
    # Serve points size their tenants from the request stream instead of
    # one bench workload, so skip the (cached but large) build.
    workload = None if point.queries > 1 else _build_workload(point, gpu_ids)
    observer = Observer()
    telemetry: dict = {}
    started = time.perf_counter()
    result = None
    with run_scope(point.run_id):
        if point.queries > 1:
            metrics, directions = _run_serve_point(
                point, machine, policy_cls, observer, telemetry
            )
        elif point.faults is None:
            from repro.core import MGJoin

            result = MGJoin(
                machine, policy=policy_cls(), observer=observer
            ).run(workload)
            metrics, directions = _join_metrics(result)
        else:
            from repro.faults import run_chaos

            report = run_chaos(
                machine,
                workload,
                point.faults,
                policy_factory=policy_cls,
                seed=point.seed,
                observer=observer,
                strict=False,
            )
            result = report.faulted
            metrics, directions = _join_metrics(result)
            metrics["chaos.throughput_retention"] = report.throughput_retention
            metrics["chaos.correct"] = 1.0 if report.correct else 0.0
            directions["chaos.throughput_retention"] = "higher"
            directions["chaos.correct"] = "higher"
            for name, value in report.fault_counters.items():
                metrics[f"chaos.{name}"] = float(value)
                directions[f"chaos.{name}"] = "track"
            telemetry["digest_match"] = (
                report.healthy.match_digest == report.faulted.match_digest
            )
            if result.recovery is not None:
                telemetry["recovery"] = result.recovery.to_dict()
        metrics["perf.self_time_seconds"] = time.perf_counter() - started
        directions["perf.self_time_seconds"] = "lower"
        record_self_time_gauges(observer)
        meta = run_metadata(
            topology=point.topology,
            num_gpus=len(gpu_ids),
            seed=point.seed,
            config=point.config(),
            policy=point.policy,
            scenario=point.faults,
        )
    record = RunRecord.build(
        point.run_kind,
        config=point.config(),
        metrics=metrics,
        directions=directions,
        meta=meta,
        phases=observer.spans.self_times(),
        links=_link_breakdown(result.shuffle_report if result is not None else None),
        telemetry=telemetry,
        snapshot=observer.metrics.snapshot(),
    )
    assert record.run_id == point.run_id
    if store is not None:
        store.put(record)
    return record


# ---------------------------------------------------------------------------
# Running a batch
# ---------------------------------------------------------------------------


def _run_point_worker(config: dict, workload_cache: str | None) -> dict:
    """Pool entry point: run one point, return its record payload.

    Top-level so it pickles under every start method; errors come back
    as data so one broken point never tears down the whole sweep.
    """
    if workload_cache:
        from repro.bench.harness import WORKLOAD_CACHE_ENV

        os.environ[WORKLOAD_CACHE_ENV] = workload_cache
    point = SweepPoint(**config)
    try:
        record = run_one(point)
    except Exception as exc:  # surfaced as a failed point event
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "label": point.label,
            "run_id": point.run_id,
        }
    return {"record": record.to_dict(), "label": point.label}


def run_batch(
    points: list[SweepPoint],
    store: ResultsStore,
    jobs: int | None = None,
    workload_cache: str | None = None,
    progress: Callable[[dict], None] | None = None,
    stream=None,
) -> list[RunRecord]:
    """Fan ``points`` over a process pool and commit records in order
    of completion.

    ``progress`` receives structured events while the sweep is live:
    ``sweep_started``, then one ``point_finished`` / ``point_failed``
    per point (with run ID, label, wall seconds and headline metric),
    then ``sweep_finished``.  Raises :class:`SweepError` at the end if
    any point failed, after committing every point that succeeded.

    ``stream`` (a :class:`repro.obs.stream.TelemetryStream`) mirrors the
    same progress as wall-clock ``sweep.*`` NDJSON events, so a sweep
    can be watched live with ``repro top``.
    """
    if not points:
        raise SweepError("run_batch needs at least one point")
    for point in points:
        validate_point(point)
    base_emit = progress or (lambda event: None)
    _STREAM_TYPES = {
        "sweep_started": "sweep.started",
        "point_finished": "sweep.point",
        "point_failed": "sweep.failed",
        "sweep_finished": "sweep.finished",
    }

    def emit(event: dict) -> None:
        base_emit(event)
        if stream is not None:
            fields = {k: v for k, v in event.items() if k != "event"}
            if event["event"] == "sweep_finished":
                fields["finished"] = event["points"] - event["failed"]
            stream.emit(
                _STREAM_TYPES[event["event"]],
                t=stream.wall(),
                clock="wall",
                **fields,
            )
            stream.flush()
    if jobs is None:
        jobs = min(len(points), os.cpu_count() or 1)
    if jobs < 1:
        raise SweepError("jobs must be >= 1")
    emit(
        {
            "event": "sweep_started",
            "points": len(points),
            "jobs": jobs,
            "store": str(store.root),
        }
    )
    work = [(point.config(), workload_cache) for point in points]
    started = time.perf_counter()
    records: list[RunRecord] = []
    failures: list[str] = []

    def _commit(payload: dict) -> None:
        if "error" in payload:
            failures.append(f"{payload['label']}: {payload['error']}")
            emit(
                {
                    "event": "point_failed",
                    "run_id": payload["run_id"],
                    "label": payload["label"],
                    "error": payload["error"],
                }
            )
            return
        record = RunRecord.from_dict(payload["record"])
        store.put(record)
        records.append(record)
        emit(
            {
                "event": "point_finished",
                "run_id": record.run_id,
                "label": payload["label"],
                "seconds": record.metrics.get("perf.self_time_seconds"),
                "throughput_btps": record.metrics.get("join.throughput_btps"),
                "completed": len(records) + len(failures),
                "points": len(points),
            }
        )

    if jobs == 1 or len(points) == 1:
        for item in work:
            _commit(_run_point_worker(*item))
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            for payload in pool.imap_unordered(_star_worker, work):
                _commit(payload)
    emit(
        {
            "event": "sweep_finished",
            "points": len(points),
            "failed": len(failures),
            "wall_seconds": time.perf_counter() - started,
            "store": str(store.root),
        }
    )
    if failures:
        raise SweepError(
            f"{len(failures)} of {len(points)} sweep point(s) failed: "
            + "; ".join(failures)
        )
    return records


def _star_worker(item: tuple) -> dict:
    return _run_point_worker(*item)
