"""Chaos under concurrency: crash the fabric while many queries fly.

The serving layer's headline guarantee is *per-query byte-identity
under shared-fabric faults*: crash a GPU while a dozen joins contend
for the same links and every query must still produce exactly the
match digest its solo, healthy run produces — recovered queries via
join-level recovery, unaffected queries by never noticing.

:func:`run_serve_chaos` grades that guarantee end-to-end:

1. every request is first joined **solo and healthy** (one
   :class:`~repro.core.mgjoin.MGJoin` per distinct workload, digests
   cached), establishing the reference digest and the fault horizon;
2. the whole batch is then served **concurrently under the fault
   plan** by a :class:`~repro.serve.scheduler.QueryScheduler`;
3. the gate: the scheduler must actually have had ``min_in_flight``
   queries in flight at once, every query must reach ``completed``
   (shed/failed queries are structured errors, never hangs), and every
   completed digest must equal its solo reference byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.core.config import MGJoinConfig
from repro.core.mgjoin import JoinResult, MGJoin
from repro.faults.chaos import ChaosError, resolve_plan
from repro.serve.requests import QueryRequest
from repro.serve.scheduler import QueryScheduler, ServeReport, workload_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.obs import Observer
    from repro.sim.recovery import RecoveryConfig, RetryPolicy
    from repro.topology.machine import MachineTopology

__all__ = ["ServeChaosReport", "run_serve_chaos"]


@dataclass
class ServeChaosReport:
    """Per-query digest verdicts for one chaos-under-concurrency run."""

    plan: "FaultPlan"
    serve: ServeReport
    solo: dict[str, JoinResult]
    min_in_flight: int

    @property
    def concurrent_enough(self) -> bool:
        return self.serve.in_flight_peak >= self.min_in_flight

    @property
    def mismatches(self) -> list[str]:
        """Queries whose served story diverges from solo healthy."""
        bad = []
        for outcome in self.serve.outcomes:
            if outcome.status != "completed":
                bad.append(f"{outcome.name}: {outcome.status}")
                continue
            reference = self.solo[outcome.name]
            if outcome.match_digest != reference.match_digest:
                bad.append(
                    f"{outcome.name}: digest {outcome.match_digest} != "
                    f"solo {reference.match_digest}"
                )
            elif outcome.matches != reference.matches_real:
                bad.append(
                    f"{outcome.name}: {outcome.matches} matches != "
                    f"solo {reference.matches_real}"
                )
        return bad

    @property
    def correct(self) -> bool:
        return self.concurrent_enough and not self.mismatches

    @property
    def recovered_queries(self) -> tuple[str, ...]:
        return tuple(
            outcome.name
            for outcome in self.serve.outcomes
            if outcome.crashed_gpus
        )

    def summary_lines(self) -> list[str]:
        verdict = "OK" if self.correct else "MISMATCH"
        lines = [
            f"serve-chaos     : {self.plan.name} "
            f"({len(self.plan)} fault(s), seed {self.plan.seed})",
            f"queries         : {len(self.serve.outcomes)} "
            f"({self.serve.completed} completed, "
            f"{self.serve.rejected} shed, {self.serve.failed} failed)",
            f"concurrency     : peak {self.serve.in_flight_peak} in flight "
            f"(gate >= {self.min_in_flight})",
            f"digest identity : {verdict} — every completed query vs its "
            f"solo healthy run",
        ]
        if self.recovered_queries:
            lines.append(
                "recovered       : "
                + ", ".join(sorted(self.recovered_queries))
            )
        for problem in self.mismatches:
            lines.append(f"  DIVERGED {problem}")
        if not self.concurrent_enough:
            lines.append(
                f"  UNDER-CONCURRENT: peak {self.serve.in_flight_peak} "
                f"< required {self.min_in_flight}"
            )
        return lines

    def to_dict(self) -> dict:
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
                }
                for outcome in self.serve.outcomes
            },
            "serve": self.serve.to_dict(),
        }


def run_serve_chaos(
    machine: "MachineTopology",
    requests: "tuple[QueryRequest, ...] | list[QueryRequest]",
    scenario: "str | FaultPlan",
    *,
    policy_factory: "Callable[[], object]",
    config: "MGJoinConfig | None" = None,
    seed: int = 0,
    min_in_flight: int = 12,
    max_in_flight: int | None = None,
    queue_depth: int = 0,
    arbitration: str | None = "fair",
    retry: "RetryPolicy | None" = None,
    recovery: "RecoveryConfig | None" = None,
    retry_budget: int | None = None,
    observer: "Observer | None" = None,
    strict: bool = True,
) -> ServeChaosReport:
    """Serve ``requests`` concurrently under ``scenario`` and grade it.

    ``max_in_flight`` defaults to admitting the whole batch at once —
    the gate is about faults *under* concurrency, so the default setup
    maximizes it.  With ``strict`` (default) a failed gate raises
    :class:`~repro.faults.chaos.ChaosError`; ``strict=False`` returns
    the report for the caller to grade.
    """
    requests = tuple(requests)
    if len(requests) < min_in_flight:
        raise ValueError(
            f"chaos-under-concurrency needs at least {min_in_flight} "
            f"requests, got {len(requests)}"
        )
    config = replace(config or MGJoinConfig(), materialize=True)
    # Solo healthy references (digest + horizon), cached per distinct
    # workload so 12 identical tenants cost one reference run.
    solo: dict[str, JoinResult] = {}
    cache: dict[tuple, JoinResult] = {}
    horizon = 0.0
    gpu_union: set[int] = set()
    for request in requests:
        workload = workload_for(machine, request)
        gpu_union.update(workload.gpu_ids)
        key = (
            workload.gpu_ids,
            request.tuples,
            request.logical_tuples,
            request.seed,
        )
        if key not in cache:
            cache[key] = MGJoin(
                machine, config=config, policy=policy_factory()
            ).run(workload)
        solo[request.name] = cache[key]
        report = cache[key].shuffle_report
        if report is not None:
            horizon = max(horizon, report.elapsed)
    if horizon <= 0.0:
        raise ChaosError(
            "serve-chaos needs multi-GPU workloads that actually shuffle data"
        )
    plan = resolve_plan(
        scenario, machine, horizon, seed, tuple(sorted(gpu_union))
    )
    scheduler = QueryScheduler(
        machine,
        requests,
        policy_factory=policy_factory,
        config=config,
        max_in_flight=(
            max_in_flight if max_in_flight is not None else len(requests)
        ),
        queue_depth=queue_depth,
        arbitration=arbitration,
        faults=plan,
        retry=retry,
        recovery=recovery,
        retry_budget=retry_budget,
        observer=observer,
    )
    serve_report = scheduler.run()
    report = ServeChaosReport(
        plan=plan,
        serve=serve_report,
        solo=solo,
        min_in_flight=min_in_flight,
    )
    if strict and not report.correct:
        problems = report.mismatches
        if not report.concurrent_enough:
            problems = [
                f"in-flight peak {serve_report.in_flight_peak} < "
                f"{min_in_flight}"
            ] + problems
        raise ChaosError(
            f"serve-chaos scenario {plan.name!r} failed the "
            f"concurrency-identity gate: " + "; ".join(problems)
        )
    return report
