"""Cost-model conformance: predicted ``T_R``/``D_R`` vs simulated actuals.

The paper's §3.2/§4.2.2 routing metric prices every candidate route as
``ARM(R, P) = T_R + D_R`` — transmission time over the bottleneck link
plus the sum of perceived queueing + link latencies.  Nothing in the
post-hoc tooling ever checked that prediction against what the
simulator then actually did to the packet.  This probe closes the loop:

* at injection time it re-evaluates the chosen route's ``T_R`` and
  ``D_R`` exactly as the deciding GPU perceived them (own links exact,
  remote links through the last broadcast), through the same
  ``RoutingContext.dynamic_delay`` rule the ARM metric uses,
* at delivery time it measures the realized latency and records the
  residual ``actual - (T_R + D_R)``,
* residuals are attributed to the route's *predicted bottleneck link*
  (the link with the largest perceived queue+latency term), so drift
  can be localized to specific links and, via run metadata, policies.

Everything is bounded: per-link aggregates are O(#links) and the raw
residual reservoir is capped at ``max_samples`` (aggregates keep
counting past the cap).
"""

from __future__ import annotations

from repro.obs.metrics import stable_float
from repro.sim.recorder import Recorder

__all__ = ["ConformanceProbe"]

#: The :meth:`ConformanceProbe.summary` fields exported as gauges.
GAUGED = (
    "count", "drift_ratio", "residual_mean_us", "residual_p50_us",
    "residual_p95_us", "residual_p99_us", "abs_residual_p95_us",
    "underprediction_share",
)


def _percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class ConformanceProbe(Recorder):
    """Instruments routed transfers with predicted-vs-actual latency."""

    def __init__(self, max_samples: int = 100_000, policy: str = "") -> None:
        self.max_samples = max_samples
        self.policy = policy
        #: id(packet) -> (packet, (t_r, d_r, bottleneck_link_id)); the
        #: entry holds the packet so that a packet a fault discards is
        #: not freed, and its id not reused by a later packet, before
        #: :meth:`record_drained` drops it.
        self._pending: dict[int, tuple[object, tuple[float, float, int]]] = {}
        self._residuals: list[float] = []
        self._predicted: list[float] = []
        self.count = 0
        self.retried = 0
        self.underpredicted = 0
        self.residual_sum = 0.0
        self.abs_residual_sum = 0.0
        self.predicted_sum = 0.0
        self.actual_sum = 0.0
        #: link_id -> [count, residual_sum, abs_residual_sum]
        self.links: dict[int, list[float]] = {}

    # ------------------------------------------------------------------
    def predict(self, context, src: int, route, packet_bytes: int):
        """Price ``route`` as GPU ``src`` perceives it right now.

        Evaluates the route's record through the same queue-view rule
        as :func:`repro.routing.adaptive.arm_value`
        (:meth:`RoutingContext.dynamic_delay`).
        """
        record = context.enumerator.cache.record(route)
        t_r = record.transmission_time(packet_bytes)
        terms: list[float] = []
        d_r = context.dynamic_delay(record, src, terms=terms)
        bottleneck = -1
        worst = -1.0
        for (link_id, _, _), term in zip(record.hops, terms):
            if term > worst:
                worst = term
                bottleneck = link_id
        return t_r, d_r, bottleneck

    def register(self, packet, prediction: tuple[float, float, int]) -> None:
        """Arm the probe for one injected packet."""
        self._pending[id(packet)] = (packet, prediction)

    def record_decision(self, decision) -> None:
        """Name the probe after the policy of the first decision."""
        if not self.policy:
            self.policy = decision.policy

    def record_injection(self, node, route, batch) -> None:
        """Price a routed batch at injection and arm the probe for it.

        Runs before the batch commits any link, so the prediction sees
        the queues the deciding GPU saw when it chose ``route``.
        """
        prediction = self.predict(node.context, node.gpu_id, route, node.packet_size)
        for packet in batch:
            self.register(packet, prediction)

    def record_drained(self, fabric) -> None:
        """Drop every still-pending entry: the engine has run dry, so a
        packet a crash discarded can no longer be delivered."""
        self._pending.clear()

    def record_delivery(self, packet, now: float) -> None:
        """Close the loop for a delivered packet (no-op if unregistered)."""
        entry = self._pending.pop(id(packet), None)
        if entry is None:
            return
        t_r, d_r, bottleneck = entry[1]
        predicted = t_r + d_r
        actual = now - packet.created_at
        residual = actual - predicted
        self.count += 1
        if packet.attempts or packet.fallback:
            self.retried += 1
        if residual > 0.0:
            self.underpredicted += 1
        self.residual_sum += residual
        self.abs_residual_sum += abs(residual)
        self.predicted_sum += predicted
        self.actual_sum += actual
        stats = self.links.setdefault(bottleneck, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += residual
        stats[2] += abs(residual)
        if len(self._residuals) < self.max_samples:
            self._residuals.append(residual)
            self._predicted.append(predicted)

    # ------------------------------------------------------------------
    @property
    def drift_ratio(self) -> float:
        """Mean |residual| relative to mean predicted latency."""
        if self.predicted_sum <= 0.0:
            return 0.0
        return self.abs_residual_sum / self.predicted_sum

    def summary(self) -> dict:
        """Bounded summary dict (also the ``conformance`` stream event body)."""
        residuals = self._residuals
        return {
            "count": self.count,
            "retried": self.retried,
            "policy": self.policy,
            "drift_ratio": stable_float(self.drift_ratio),
            "residual_mean_us": stable_float(
                (self.residual_sum / self.count) * 1e6 if self.count else 0.0
            ),
            "residual_p50_us": stable_float(_percentile(residuals, 50) * 1e6),
            "residual_p95_us": stable_float(_percentile(residuals, 95) * 1e6),
            "residual_p99_us": stable_float(_percentile(residuals, 99) * 1e6),
            "abs_residual_p95_us": stable_float(
                _percentile([abs(r) for r in residuals], 95) * 1e6
            ),
            "underprediction_share": stable_float(
                self.underpredicted / self.count if self.count else 0.0
            ),
            "worst_links": self.worst_links(),
        }

    def worst_links(self, top: int = 8) -> list[dict]:
        """Links ranked by total |residual| attributed to them."""
        ranked = sorted(
            self.links.items(), key=lambda item: (-item[1][2], item[0])
        )[:top]
        out = []
        for link_id, (count, residual_sum, abs_sum) in ranked:
            out.append(
                {
                    "link": link_id,
                    "count": int(count),
                    "residual_mean_us": stable_float((residual_sum / count) * 1e6),
                    "abs_share": stable_float(
                        abs_sum / self.abs_residual_sum
                        if self.abs_residual_sum > 0.0
                        else 0.0
                    ),
                }
            )
        return out

    def gauges(self) -> dict[str, float]:
        """The direction-tagged ``conformance.*`` gauges of :meth:`summary`."""
        summary = self.summary()
        return {f"conformance.{key}": float(summary[key]) for key in GAUGED}

    def render(self) -> list[str]:
        """Human section for ``repro analyze --conformance``."""
        summary = self.summary()
        lines = ["cost-model conformance (predicted T_R + D_R vs simulated)"]
        if not self.count:
            lines.append("  no routed transfers were instrumented")
            return lines
        policy = f" policy={self.policy}" if self.policy else ""
        lines.append(
            f"  transfers={summary['count']} retried={summary['retried']}"
            f"{policy} drift={summary['drift_ratio'] * 100:.1f}%"
        )
        lines.append(
            "  residual us: mean={:+.1f} p50={:+.1f} p95={:+.1f} p99={:+.1f}"
            " |p95|={:.1f}".format(
                summary["residual_mean_us"],
                summary["residual_p50_us"],
                summary["residual_p95_us"],
                summary["residual_p99_us"],
                summary["abs_residual_p95_us"],
            )
        )
        lines.append(
            f"  underprediction share={summary['underprediction_share'] * 100:.1f}%"
            " (positive residual = model too optimistic)"
        )
        lines.append("  drift by predicted bottleneck link:")
        for entry in summary["worst_links"]:
            lines.append(
                f"    link {entry['link']:>4}  n={entry['count']:<7}"
                f" mean={entry['residual_mean_us']:+9.1f}us"
                f"  share={entry['abs_share'] * 100:5.1f}%"
            )
        return lines
