"""The chaos harness: run a join under faults and grade the damage.

:func:`run_chaos` is the one chaos driver.  It takes either a single
:class:`~repro.core.relation.JoinWorkload`, run by
:class:`~repro.core.mgjoin.MGJoin`, or a batch of
:class:`~repro.serve.requests.QueryRequest`, served concurrently over
one shared fabric by a :class:`~repro.serve.scheduler.QueryScheduler`.
A solo join is the degenerate batch: both go through the same steps.

1. Every distinct workload is first joined **solo and healthy**, with
   its match set materialized; the reference runs are cached, so a
   dozen identical tenants cost one run.  The longest healthy shuffle
   is the fault horizon: presets are materialized against it, so
   ``nvlink-brownout`` stresses a 10 ms toy shuffle and a 10 s
   production-sized one in the same proportions.
2. The workload (or the whole batch) then runs **under the fault
   plan**, each routing decision made by a fresh policy instance.
3. One verdict, :func:`join_failure`, grades every query against its
   healthy reference on the order-independent sha256 digest of the
   (r_id, s_id) pairs.  The headline guarantee for GPU-crash scenarios
   is that the faulted digest equals the healthy one byte-for-byte,
   even after losing up to N−1 GPUs mid-join and with a dozen other
   queries contending for the same links.  A batch must also reach its
   ``min_in_flight`` concurrency peak and complete every query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.config import MGJoinConfig
from repro.core.mgjoin import JoinResult, MGJoin
from repro.core.relation import JoinWorkload
from repro.faults.plan import (
    CORRUPTION_KINDS,
    FaultPlan,
    FaultPlanError,
    PRESET_NAMES,
    build_preset,
)
from repro.routing import AdaptiveArmPolicy
from repro.serve.scheduler import QueryScheduler, ServeReport, workload_for
from repro.sim.recovery import RecoveryConfig, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observer
    from repro.routing.base import RoutingPolicy
    from repro.serve.requests import QueryRequest
    from repro.sim.integrity import IntegrityStats
    from repro.topology.machine import MachineTopology

#: The query name a solo join is graded under.
SOLO = "join"


class ChaosError(RuntimeError):
    """The faulted run broke an invariant (wrong result, data loss)."""


class ChaosInputError(ValueError):
    """:func:`run_chaos` refused its input before running any join."""


def _silent_corruption(result: JoinResult) -> "IntegrityStats | None":
    """The integrity stats of ``result`` if corrupt data went unchecked
    (see :attr:`~repro.sim.integrity.IntegrityStats.unchecked_corruption`)."""
    stats = result.integrity
    return stats if stats is not None and stats.unchecked_corruption else None


def join_failure(healthy: JoinResult, faulted: JoinResult) -> str | None:
    """Why ``faulted`` is not the exact ``healthy`` join; ``None`` if it is.

    Graded on total matches and, when materialized, on the canonical
    match-set digest.  The per-GPU distribution must also match, except
    when join-level recovery reassigned partitions: survivors then
    legitimately absorb the dead GPUs' shares and only the *set* of
    matches has to be identical.  A run where the integrity audit caught
    silent corruption always fails, even if the (timing-model) digest
    happens to agree.
    """
    stats = _silent_corruption(faulted)
    if stats is not None:
        return (
            f"silently corrupted the shuffle: {stats.corrupt_delivered} "
            f"corrupt and {stats.dup_delivered} duplicate deliveries went "
            f"undetected by the unverified transport"
        )
    if faulted.matches_logical != healthy.matches_logical:
        return (
            f"corrupted the join: {faulted.matches_logical} matches vs "
            f"{healthy.matches_logical} healthy"
        )
    if (
        faulted.match_digest is not None
        and healthy.match_digest is not None
        and faulted.match_digest != healthy.match_digest
    ):
        return (
            f"corrupted the join: digest {faulted.match_digest} != "
            f"healthy {healthy.match_digest}"
        )
    if (
        faulted.recovery is None
        and faulted.per_gpu_matches != healthy.per_gpu_matches
    ):
        return "corrupted the join: per-GPU matches moved without a recovery"
    return None


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario, solo join or served batch: the
    same per-query data, plus the :class:`ServeReport` of a batch."""

    plan: FaultPlan
    #: Healthy solo reference per query name.
    solo: dict[str, JoinResult]
    #: Faulted run per query name: its finished join, or the terminal
    #: status of a served query that did not complete.
    runs: dict[str, "JoinResult | str"]
    #: The served batch; ``None`` for a solo join.
    serve: ServeReport | None = None
    #: The in-flight peak a batch must reach (0 = no gate).
    min_in_flight: int = 0

    def _solo_run(self, results: dict) -> JoinResult:
        if self.serve is not None:
            raise AttributeError("a served batch has no single join; see .runs")
        return results[SOLO]

    @property
    def healthy(self) -> JoinResult:
        """The solo join's healthy reference."""
        return self._solo_run(self.solo)

    @property
    def faulted(self) -> JoinResult:
        """The solo join's faulted run."""
        return self._solo_run(self.runs)

    @property
    def verdicts(self) -> dict[str, str | None]:
        """Per-query failure reason; ``None`` = exact healthy result."""
        return {
            name: run if isinstance(run, str) else join_failure(self.solo[name], run)
            for name, run in self.runs.items()
        }

    @property
    def mismatches(self) -> list[str]:
        """One line per query whose faulted run diverges from solo healthy."""
        return [
            f"{name}: {reason}"
            for name, reason in self.verdicts.items()
            if reason is not None
        ]

    @property
    def concurrent_enough(self) -> bool:
        serve = self.serve
        return serve is None or serve.in_flight_peak >= self.min_in_flight

    @property
    def failure(self) -> str | None:
        """Why the scenario failed its gate; ``None`` if it passed."""
        problems = self.mismatches
        if not self.concurrent_enough:
            problems = [
                f"in-flight peak {self.serve.in_flight_peak} < "
                f"{self.min_in_flight}",
                *problems,
            ]
        return "; ".join(problems) or None

    @property
    def correct(self) -> bool:
        return self.failure is None

    @property
    def recovered_queries(self) -> tuple[str, ...]:
        """Queries that lost a GPU to a crash mid-join."""
        if self.serve is not None:  # failed ones too: read the outcomes
            return tuple(
                outcome.name
                for outcome in self.serve.outcomes
                if outcome.crashed_gpus
            )
        return () if self.faulted.recovery is None else (SOLO,)

    @property
    def silent_corruption_detected(self) -> bool:
        """Did the unverified transport deliver corrupt/duplicate data?"""
        return any(
            not isinstance(run, str) and _silent_corruption(run) is not None
            for run in self.runs.values()
        )

    @property
    def integrity(self) -> "IntegrityStats | None":
        """Verified-transport stats from the faulted solo run, if active."""
        return self.faulted.integrity

    @property
    def throughput_retention(self) -> float:
        """Faulted solo throughput as a fraction of healthy throughput."""
        if self.healthy.throughput <= 0:
            return 0.0
        return self.faulted.throughput / self.healthy.throughput

    @property
    def fault_counters(self) -> dict[str, int]:
        report = self.faulted.shuffle_report
        if report is None:
            return {}
        counters = {
            "faults_injected": report.faults_injected,
            "packet_retries": report.packet_retries,
            "packet_reroutes": report.packet_reroutes,
            "packet_fallbacks": report.packet_fallbacks,
            "packets_recovered": report.packets_recovered,
        }
        if report.integrity is not None:
            counters.update(
                checksum_failures=report.integrity.checksum_failures,
                retransmits=report.integrity.retransmits,
                dup_dropped=report.integrity.dup_dropped,
            )
        return counters

    def summary_lines(self) -> list[str]:
        if self.serve is not None:
            return self._batch_lines()
        lines = [
            f"chaos scenario : {self.plan.name} "
            f"({len(self.plan)} fault(s), seed {self.plan.seed})",
            f"correctness    : "
            f"{'OK' if self.correct else 'MISMATCH'} "
            f"({self.faulted.matches_logical} matches)",
            f"healthy        : {self.healthy.total_time * 1e3:.3f} ms "
            f"({self.healthy.throughput / 1e9:.2f} Gtuples/s)",
            f"faulted        : {self.faulted.total_time * 1e3:.3f} ms "
            f"({self.faulted.throughput / 1e9:.2f} Gtuples/s)",
            f"retention      : {self.throughput_retention * 100:.1f}% "
            f"of healthy throughput",
        ]
        for name, value in self.fault_counters.items():
            lines.append(f"{name:<15}: {value}")
        stats = self.integrity
        if stats is not None:
            mode = "verified" if stats.verified else "audit-only"
            lines.append(f"transport      : {mode} integrity layer active")
            if self.silent_corruption_detected:
                lines.append(
                    f"  SILENT CORRUPTION: {stats.corrupt_delivered} corrupt "
                    f"and {stats.dup_delivered} duplicate deliveries reached "
                    f"destinations unchecked"
                )
        if self.faulted.recovery is not None:
            lines.append("degraded mode  : join-level crash recovery engaged")
            lines.extend(
                f"  {line}" for line in self.faulted.recovery.summary_lines()
            )
        return lines

    def _batch_lines(self) -> list[str]:
        serve = self.serve
        lines = [
            f"serve-chaos     : {self.plan.name} "
            f"({len(self.plan)} fault(s), seed {self.plan.seed})",
            f"queries         : {len(serve.outcomes)} "
            f"({serve.completed} completed, "
            f"{serve.rejected} shed, {serve.failed} failed)",
            f"concurrency     : peak {serve.in_flight_peak} in flight "
            f"(gate >= {self.min_in_flight})",
            f"digest identity : {'OK' if self.correct else 'MISMATCH'} — "
            f"every completed query vs its solo healthy run",
        ]
        if self.recovered_queries:
            lines.append(
                "recovered       : " + ", ".join(sorted(self.recovered_queries))
            )
        for problem in self.mismatches:
            lines.append(f"  DIVERGED {problem}")
        if not self.concurrent_enough:
            lines.append(
                f"  UNDER-CONCURRENT: peak {serve.in_flight_peak} "
                f"< required {self.min_in_flight}"
            )
        return lines

    def to_dict(self) -> dict:
        """The ``chaos_report.json`` (solo) or ``serve_chaos_report.json``
        (batch) payload, before run metadata."""
        if self.serve is None:
            recovery = self.faulted.recovery
            return {
                "plan": self.plan.to_dict(),
                "correct": self.correct,
                "throughput_retention": self.throughput_retention,
                "healthy_seconds": self.healthy.total_time,
                "faulted_seconds": self.faulted.total_time,
                "healthy_digest": self.healthy.match_digest,
                "faulted_digest": self.faulted.match_digest,
                "counters": self.fault_counters,
                "integrity": (
                    None if self.integrity is None else self.integrity.to_dict()
                ),
                "recovery_telemetry": (
                    None if recovery is None else recovery.to_dict()
                ),
            }
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "faults": len(self.plan),
            "correct": self.correct,
            "min_in_flight": self.min_in_flight,
            "in_flight_peak": self.serve.in_flight_peak,
            "mismatches": self.mismatches,
            "recovered_queries": list(self.recovered_queries),
            "queries": {
                outcome.name: {
                    "status": outcome.status,
                    "digest": outcome.match_digest,
                    "solo_digest": self.solo[outcome.name].match_digest,
                    "crashed_gpus": list(outcome.crashed_gpus),
                    "retries": outcome.retries,
                    "latency": outcome.latency,
                    "integrity": (
                        None
                        if outcome.integrity is None
                        else outcome.integrity.to_dict()
                    ),
                }
                for outcome in self.serve.outcomes
            },
            "serve": self.serve.to_dict(),
        }


def resolve_plan(
    scenario: "str | FaultPlan",
    machine: "MachineTopology",
    horizon: float,
    seed: int = 0,
    gpu_ids: "tuple[int, ...] | None" = None,
) -> FaultPlan:
    """Turn a preset name or a ready plan into a concrete, valid plan.

    Explicit plans are validated against the machine and GPU cut here,
    so a plan naming a nonexistent GPU or link fails fast with a
    :class:`FaultPlanError` instead of a mid-run ``KeyError``.
    """
    if isinstance(scenario, FaultPlan):
        return scenario.validate(machine, gpu_ids)
    if scenario in PRESET_NAMES:
        return build_preset(scenario, machine, horizon, seed, gpu_ids)
    known = ", ".join(PRESET_NAMES)
    raise FaultPlanError(f"unknown preset {scenario!r}; choose one of: {known}")


def healthy_reference(
    machine: "MachineTopology",
    workload: JoinWorkload,
    config: MGJoinConfig | None = None,
    policy_factory: "Callable[[], RoutingPolicy]" = AdaptiveArmPolicy,
) -> JoinResult:
    """The healthy solo join a chaos run is graded against.

    The match set is materialized so correctness is digest-graded.
    """
    config = replace(config or MGJoinConfig(), materialize=True)
    return MGJoin(machine, config=config, policy=policy_factory()).run(workload)


def run_chaos(
    machine: "MachineTopology",
    workload: "JoinWorkload | Sequence[QueryRequest]",
    scenario: "str | FaultPlan",
    *,
    config: "MGJoinConfig | None" = None,
    policy_factory: "Callable[[], RoutingPolicy]" = AdaptiveArmPolicy,
    seed: int = 0,
    observer: "Observer | None" = None,
    strict: bool = True,
    retry: RetryPolicy | None = None,
    recovery: RecoveryConfig | None = None,
    verify: bool | None = None,
    healthy: JoinResult | None = None,
    min_in_flight: int = 12,
    arbitration: str | None = "fair",
    retry_budget: int | None = None,
) -> ChaosReport:
    """Run one chaos scenario; the observer sees the *faulted* run.

    ``workload`` is one join, or a batch of requests served all at once
    with ``arbitration`` on the shared links and a per-query
    ``retry_budget``; the batch must have and reach ``min_in_flight``
    queries in flight (0 = no gate).  A solo join ignores those three;
    ``healthy``, a precomputed solo baseline (same machine, config and
    policy), is refused for a batch.  Input the driver cannot grade
    raises :class:`ChaosInputError` before any join runs.

    With ``strict`` (the default) a failed gate raises
    :class:`ChaosError`; ``strict=False`` returns the report instead.
    ``policy_factory`` builds a fresh routing policy for every run, so
    no policy state carries from the healthy run into the faulted one.

    ``retry`` overrides the faulted run's retry/backoff/fallback knobs
    (else the plan's ``retry`` section, else :class:`RetryPolicy`
    defaults); ``recovery`` sets the join-level crash-recovery knobs.
    ``verify`` forces the verified transport on (``True``) or off
    (``False``: the integrity layer still audits and the report flags
    silent corruption); ``None`` enables it exactly when the plan
    contains corruption-class faults, so loss/slowdown scenarios keep
    their historical digests.
    """
    config = replace(config or MGJoinConfig(), materialize=True)
    if isinstance(workload, JoinWorkload):
        requests = None
        jobs = {SOLO: ((), workload)}
        gpu_ids = workload.gpu_ids
    else:
        requests = tuple(workload)
        if healthy is not None:
            raise ChaosInputError("healthy= applies to a solo join only")
        if len(requests) < min_in_flight:
            raise ChaosInputError(
                f"chaos-under-concurrency needs at least {min_in_flight} "
                f"requests, got {len(requests)}"
            )
        try:
            jobs = {}
            for request in requests:
                job = workload_for(machine, request)
                identity = (request.tuples, request.logical_tuples, request.seed)
                jobs[request.name] = ((job.gpu_ids, *identity), job)
        except ValueError as exc:
            raise ChaosInputError(str(exc)) from exc
        gpu_ids = tuple(sorted({g for _, job in jobs.values() for g in job.gpu_ids}))
    if isinstance(scenario, FaultPlan) or scenario not in PRESET_NAMES:
        # A bad plan or preset name fails before any reference join runs.
        scenario = resolve_plan(scenario, machine, 0.0, seed, gpu_ids)
    # One healthy reference per distinct workload, so a dozen identical
    # tenants cost one run.
    cache: dict[tuple, JoinResult] = {} if healthy is None else {(): healthy}
    solo: dict[str, JoinResult] = {}
    for name, (key, job) in jobs.items():
        if key not in cache:
            cache[key] = healthy_reference(machine, job, config, policy_factory)
        solo[name] = cache[key]
    horizon = max(
        (ref.shuffle_report.elapsed for ref in solo.values()
         if ref.shuffle_report is not None),
        default=0.0,
    )
    if horizon <= 0.0:
        raise ChaosError("chaos needs a multi-GPU workload that actually shuffles data")
    plan = resolve_plan(scenario, machine, horizon, seed, gpu_ids)
    if verify is None:
        verify = any(event.kind in CORRUPTION_KINDS for event in plan.events)
    config = replace(config, shuffle=replace(config.shuffle, verify_transport=verify))
    if requests is None:
        faulted = MGJoin(
            machine,
            config=config,
            policy=policy_factory(),
            observer=observer,
            faults=plan,
            retry=retry,
            recovery=recovery,
        ).run(workload)
        report = ChaosReport(plan, solo, {SOLO: faulted})
    else:
        served = QueryScheduler(
            machine,
            requests,
            policy_factory=policy_factory,
            config=config,
            max_in_flight=len(requests),
            queue_depth=0,
            arbitration=arbitration,
            faults=plan,
            retry=retry,
            recovery=recovery,
            retry_budget=retry_budget,
            observer=observer,
        ).run()
        runs = {
            o.name: o.result if o.status == "completed" else o.status
            for o in served.outcomes
        }
        report = ChaosReport(plan, solo, runs, serve=served, min_in_flight=min_in_flight)
    if strict and not report.correct:
        raise ChaosError(f"chaos scenario {plan.name!r}: {report.failure}")
    return report
