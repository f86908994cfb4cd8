"""The chaos harness: run a join under faults and grade the damage.

:func:`run_chaos` executes the same workload twice — once healthy,
once under a :class:`FaultPlan` — with the same policy and config, then
checks that the faulted run still *completed with the correct join
result* (no hang, no silent data loss) and reports the throughput it
retained.  Presets are materialized against the healthy run's measured
distribution time, so `nvlink-brownout` stresses a 10 ms toy shuffle
and a 10 s production-sized one in the same proportions.

Both runs are forced to materialize their match sets so correctness is
graded on the order-independent sha256 digest of the (r_id, s_id)
pairs — the headline guarantee for GPU-crash scenarios is that the
faulted digest equals the healthy one byte-for-byte even after losing
up to N−1 GPUs mid-join.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.config import MGJoinConfig
from repro.core.mgjoin import JoinResult, MGJoin
from repro.faults.plan import (
    CORRUPTION_KINDS,
    FaultPlan,
    FaultPlanError,
    PRESET_NAMES,
    build_preset,
)
from repro.sim.recovery import RecoveryConfig, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.relation import JoinWorkload
    from repro.obs import Observer
    from repro.routing.base import RoutingPolicy
    from repro.sim.integrity import IntegrityStats
    from repro.topology.machine import MachineTopology


class ChaosError(RuntimeError):
    """The faulted run broke an invariant (wrong result, data loss)."""


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario."""

    plan: FaultPlan
    healthy: JoinResult
    faulted: JoinResult

    @property
    def integrity(self) -> "IntegrityStats | None":
        """Verified-transport stats from the faulted run, if active."""
        report = self.faulted.shuffle_report
        return None if report is None else report.integrity

    @property
    def silent_corruption_detected(self) -> bool:
        """Did the unverified transport deliver corrupt/duplicate data?

        Only meaningful with verification *off*: the end-to-end audit
        found deliveries whose payload checksum was stale or whose uid
        was already seen.  With verification on, those packets were
        repaired in-flight and this stays ``False``.
        """
        stats = self.integrity
        return (
            stats is not None
            and not stats.verified
            and stats.silent_corruption
        )

    @property
    def correct(self) -> bool:
        """Did the faulted join produce the exact healthy result?

        Graded on total matches and, when materialized, on the
        canonical match-set digest.  The per-GPU distribution must also
        match — except when join-level recovery reassigned partitions,
        where survivors legitimately absorb the dead GPUs' shares and
        only the *set* of matches has to be identical.  A run where the
        integrity audit caught silent corruption is never correct, even
        if the (timing-model) digest happens to agree.
        """
        if self.silent_corruption_detected:
            return False
        if self.faulted.matches_logical != self.healthy.matches_logical:
            return False
        if (
            self.faulted.match_digest is not None
            and self.healthy.match_digest is not None
            and self.faulted.match_digest != self.healthy.match_digest
        ):
            return False
        if self.faulted.recovery is None:
            return self.faulted.per_gpu_matches == self.healthy.per_gpu_matches
        return True

    @property
    def throughput_retention(self) -> float:
        """Faulted throughput as a fraction of healthy throughput."""
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


def run_chaos(
    machine: "MachineTopology",
    workload: "JoinWorkload",
    scenario: "str | FaultPlan",
    *,
    config: "MGJoinConfig | None" = None,
    policy: "RoutingPolicy | None" = None,
    seed: int = 0,
    observer: "Observer | None" = None,
    strict: bool = True,
    retry: RetryPolicy | None = None,
    recovery: RecoveryConfig | None = None,
    verify: bool | None = None,
    healthy: JoinResult | None = None,
) -> ChaosReport:
    """Run one chaos scenario; the observer sees the *faulted* run.

    With ``strict`` (the default) a wrong join result raises
    :class:`ChaosError`; passing ``strict=False`` returns the report for
    the caller to grade (used by tests that assert on the failure mode).

    ``retry`` overrides the faulted run's retry/backoff/fallback knobs;
    when ``None``, overrides baked into the plan's ``retry`` section
    apply, and otherwise :class:`RetryPolicy` defaults.  ``recovery``
    sets the heartbeat/checkpoint knobs for join-level crash recovery.

    ``verify`` controls the verified-transport layer for the faulted
    run: ``True`` forces checksum/NACK/dedup protection on, ``False``
    forces it off (the integrity layer still *audits* and the report
    flags silent corruption), and ``None`` (default) enables it exactly
    when the plan contains corruption-class faults — so existing
    loss/slowdown scenarios keep their historical digests.

    ``healthy`` supplies a precomputed baseline (same machine, workload,
    config, and policy) so batch callers like the chaos fuzzer pay for
    the healthy run once instead of once per plan.
    """
    # Materialize the match sets so correctness is digest-graded.
    config = replace(config or MGJoinConfig(), materialize=True)
    if healthy is None:
        healthy = MGJoin(machine, config=config, policy=policy).run(workload)
    if healthy.shuffle_report is None:
        raise ChaosError(
            "chaos needs a multi-GPU workload that actually shuffles data"
        )
    horizon = healthy.shuffle_report.elapsed
    plan = resolve_plan(scenario, machine, horizon, seed, workload.gpu_ids)
    if verify is None:
        verify = any(event.kind in CORRUPTION_KINDS for event in plan.events)
    faulted_config = replace(
        config, shuffle=replace(config.shuffle, verify_transport=verify)
    )
    faulted = MGJoin(
        machine,
        config=faulted_config,
        policy=policy,
        observer=observer,
        faults=plan,
        retry=retry,
        recovery=recovery,
    ).run(workload)
    report = ChaosReport(plan=plan, healthy=healthy, faulted=faulted)
    if strict and not report.correct:
        if report.silent_corruption_detected:
            stats = report.integrity
            raise ChaosError(
                f"chaos scenario {plan.name!r} silently corrupted the "
                f"shuffle: {stats.corrupt_delivered} corrupt and "
                f"{stats.dup_delivered} duplicate deliveries went "
                f"undetected by the unverified transport"
            )
        raise ChaosError(
            f"chaos scenario {plan.name!r} corrupted the join: "
            f"{report.faulted.matches_logical} matches vs "
            f"{report.healthy.matches_logical} healthy"
        )
    return report
