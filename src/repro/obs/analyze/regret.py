"""ARM decision audit: was each routing choice right, in hindsight?

Every routing policy reports one
:class:`~repro.routing.base.RouteDecision` per batch (see
:meth:`repro.routing.base.RoutingPolicy.emit_decision`) carrying the
candidate routes it considered; the observer keeps them in
:attr:`~repro.obs.Observer.decisions`.  This module replays each one
against the *realized* link timelines captured by a
:class:`~repro.obs.analyze.timeline.LinkTimelineSampler`: for every
candidate route it recomputes the ARM cost (Eq. 2) using the queue
delays the links actually had at that instant — the ground truth the
deciding GPU could not see through the delayed broadcast board.

Per-batch **regret** is the realized cost of the chosen route minus
the realized cost of the best candidate.  Regret of zero means the
decision was optimal given what actually happened; the audit also
correlates regret with the link-state board's staleness at decision
time, quantifying how much the broadcast delay costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.analyze.timeline import LinkTimelineSampler
from repro.topology.routes import Route, route_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observer
    from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class DecisionAudit:
    """One replayed routing decision."""

    time: float
    src: int
    dst: int
    policy: str
    chosen: str
    best: str
    #: Realized ARM cost (seconds) of the chosen / best candidate.
    realized_chosen: float
    realized_best: float
    batch_bytes: int
    #: Broadcast-board error (seconds) the decider saw.
    staleness: float

    @property
    def regret(self) -> float:
        return max(0.0, self.realized_chosen - self.realized_best)

    @property
    def was_optimal(self) -> bool:
        return self.chosen == self.best


@dataclass
class RegretReport:
    """Aggregated audit of every decision in one run."""

    policy: str
    rows: list[DecisionAudit] = field(default_factory=list)

    @property
    def decisions(self) -> int:
        return len(self.rows)

    @property
    def mean_regret(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.regret for row in self.rows) / len(self.rows)

    @property
    def total_regret(self) -> float:
        return sum(row.regret for row in self.rows)

    @property
    def optimal_share(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.was_optimal for row in self.rows) / len(self.rows)

    def percentile_regret(self, q: float) -> float:
        if not self.rows:
            return 0.0
        ordered = sorted(row.regret for row in self.rows)
        index = min(
            len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))
        )
        return ordered[index]

    @property
    def staleness_regret_correlation(self) -> float | None:
        """Pearson correlation of board staleness vs regret.

        ``None`` when either series is constant (correlation
        undefined).
        """
        pairs = [(row.staleness, row.regret) for row in self.rows]
        if len(pairs) < 2:
            return None
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
        var_x = sum((x - mean_x) ** 2 for x in xs)
        var_y = sum((y - mean_y) ** 2 for y in ys)
        if var_x <= 0 or var_y <= 0:
            return None
        return cov / math.sqrt(var_x * var_y)

    def worst(self, top: int = 10) -> list[DecisionAudit]:
        return sorted(self.rows, key=lambda row: row.regret, reverse=True)[:top]

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "decisions": self.decisions,
            "mean_regret": self.mean_regret,
            "p95_regret": self.percentile_regret(95),
            "total_regret": self.total_regret,
            "optimal_share": self.optimal_share,
            "staleness_regret_correlation": self.staleness_regret_correlation,
        }


def realized_arm(
    machine: "MachineTopology",
    sampler: LinkTimelineSampler,
    route: Route,
    packet_bytes: int,
    when: float,
) -> float:
    """ARM(R, P) recomputed from the realized link state at ``when``.

    Same form as :func:`repro.routing.adaptive.arm_value` — bottleneck
    transmission time plus per-link queue + latency — but the queue
    delays come from the sampled timeline (strictly before ``when``,
    so a decision's own commits are excluded) instead of the decider's
    broadcast view.

    The static half — the link hops and ``T_R`` — is the route's
    cached :class:`~repro.topology.routes.RouteRecord`, exactly as the
    deciding policy reads it.
    """
    record = route_cache(machine).record(route)
    delay = 0.0
    for link_id, latency, _ in record.hops:
        delay += sampler.queue_delay_at(link_id, when) + latency
    return record.transmission_time(packet_bytes) + delay


def audit_decisions(
    machine: "MachineTopology",
    observer: "Observer",
    sampler: LinkTimelineSampler,
) -> RegretReport:
    """Replay every decision ``observer`` recorded against the timelines."""
    policy = ""
    rows: list[DecisionAudit] = []
    for decision in observer.decisions:
        policy = decision.policy
        costs = {
            route: realized_arm(
                machine, sampler, route, decision.packet_bytes, decision.time
            )
            for route in decision.routes
        }
        chosen = decision.chosen
        best = min(costs, key=lambda route: (costs[route], route != chosen))
        rows.append(
            DecisionAudit(
                time=decision.time,
                src=decision.src,
                dst=decision.dst,
                policy=policy,
                chosen=str(chosen),
                best=str(best),
                realized_chosen=costs[chosen],
                realized_best=costs[best],
                batch_bytes=decision.batch_bytes,
                staleness=decision.staleness,
            )
        )
    rows.sort(key=lambda row: row.time)
    return RegretReport(policy=policy, rows=rows)
