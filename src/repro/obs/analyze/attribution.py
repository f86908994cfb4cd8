"""Bottleneck attribution: which link capped which phase, and why.

The paper's whole argument (Figures 8 and 12) is that multi-GPU join
time is governed by how well the minimum bisection's crossing links are
kept busy.  This pass turns a sampled run
(:class:`~repro.obs.analyze.timeline.LinkTimelineSampler`) plus the
machine's :class:`~repro.sim.stats.BisectionCut` into, per pipeline
phase:

* a saturation ranking of the links active in the phase window,
* the share of the phase attributable to the bisection — the busy
  fraction of the most-saturated crossing link, i.e. how much of the
  phase the limiting cut resource was occupied — plus achieved
  per-direction bisection utilization,
* a queueing-vs-transmission split of the phase's link time,

and, across the whole run, a per-flow latency decomposition into
uncontended transmission vs congestion queueing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.analyze.timeline import LinkTimelineSampler
from repro.sim.stats import BisectionCut


@dataclass(frozen=True)
class PhaseWindow:
    """One attribution window ``[start, end)`` on the simulated clock."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass(frozen=True)
class LinkSaturation:
    """One link's activity inside one phase window."""

    link_id: int
    label: str
    #: Busy fraction of the window, in [0, 1].
    utilization: float
    bytes: float
    #: Summed FIFO waits of transfers submitted in the window.
    queueing_seconds: float
    #: Wire-busy seconds inside the window.
    transmission_seconds: float
    #: "ab" / "ba" if the link crosses the minimum bisection, else "".
    crossing: str

    @property
    def queueing_share(self) -> float:
        total = self.queueing_seconds + self.transmission_seconds
        if total <= 0:
            return 0.0
        return self.queueing_seconds / total


@dataclass
class PhaseAttribution:
    """Saturation ranking + bisection accounting for one phase."""

    phase: PhaseWindow
    #: Links active in the window, most saturated first.
    links: list[LinkSaturation]
    #: Achieved / capacity over the window, per cut direction.
    bisection_utilization_ab: float
    bisection_utilization_ba: float

    @property
    def bottleneck(self) -> LinkSaturation | None:
        return self.links[0] if self.links else None

    @property
    def bisection_time_share(self) -> float:
        """Fraction of the phase the limiting crossing link was busy.

        This is the "share of shuffle time attributable to the
        minimum bisection": while the busiest crossing link is
        occupied, the cut — not compute — is the scarce resource.
        """
        crossing = [link for link in self.links if link.crossing]
        if not crossing:
            return 0.0
        return max(link.utilization for link in crossing)

    @property
    def queueing_share(self) -> float:
        """Queueing share of all link time spent in this phase."""
        queueing = sum(link.queueing_seconds for link in self.links)
        busy = sum(link.transmission_seconds for link in self.links)
        if queueing + busy <= 0:
            return 0.0
        return queueing / (queueing + busy)


@dataclass(frozen=True)
class FlowLatencyRow:
    """Latency decomposition of one (src, dst) flow."""

    flow_src: int
    flow_dst: int
    packets: int
    mean_latency: float
    mean_queueing: float
    mean_transmission: float

    @property
    def queueing_share(self) -> float:
        if self.mean_latency <= 0:
            return 0.0
        return self.mean_queueing / self.mean_latency


@dataclass
class BottleneckReport:
    """Everything the attribution pass derived from one sampled run."""

    horizon: float
    phases: list[PhaseAttribution] = field(default_factory=list)
    flows: list[FlowLatencyRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready rendering (consumed by ``repro analyze --out-dir``)."""
        return {
            "horizon_seconds": self.horizon,
            "phases": [
                {
                    "phase": att.phase.name,
                    "window": [att.phase.start, att.phase.end],
                    "bisection_time_share": att.bisection_time_share,
                    "bisection_utilization_ab": att.bisection_utilization_ab,
                    "bisection_utilization_ba": att.bisection_utilization_ba,
                    "queueing_share": att.queueing_share,
                    "links": [
                        {
                            "link": link.label,
                            "utilization": link.utilization,
                            "bytes": link.bytes,
                            "queueing_seconds": link.queueing_seconds,
                            "transmission_seconds": link.transmission_seconds,
                            "crossing": link.crossing,
                        }
                        for link in att.links
                    ],
                }
                for att in self.phases
            ],
            "flows": [
                {
                    "src": row.flow_src,
                    "dst": row.flow_dst,
                    "packets": row.packets,
                    "mean_latency": row.mean_latency,
                    "mean_queueing": row.mean_queueing,
                    "mean_transmission": row.mean_transmission,
                    "queueing_share": row.queueing_share,
                }
                for row in self.flows
            ],
        }


def attribute_phase(
    sampler: LinkTimelineSampler,
    cut: BisectionCut,
    phase: PhaseWindow,
    top: int | None = None,
) -> PhaseAttribution:
    """Rank links by saturation inside one phase window."""
    duration = phase.duration
    crossing_side = {lid: "ab" for lid in cut.crossing_ab}
    crossing_side.update({lid: "ba" for lid in cut.crossing_ba})
    links: list[LinkSaturation] = []
    active = set(sampler.transfers)
    for link_id in sorted(active):
        busy = sampler.busy_time(link_id, phase.start, phase.end)
        nbytes = sampler.bytes_in_window(link_id, phase.start, phase.end)
        if busy <= 0 and nbytes <= 0:
            continue
        links.append(
            LinkSaturation(
                link_id=link_id,
                label=sampler.labels.get(link_id, str(link_id)),
                utilization=min(1.0, busy / duration) if duration > 0 else 0.0,
                bytes=nbytes,
                queueing_seconds=sampler.queueing_time(
                    link_id, phase.start, phase.end
                ),
                transmission_seconds=busy,
                crossing=crossing_side.get(link_id, ""),
            )
        )
    links.sort(key=lambda link: (link.utilization, link.bytes), reverse=True)
    if top is not None:
        links = links[:top]
    ab_bytes = sum(
        sampler.bytes_in_window(lid, phase.start, phase.end)
        for lid in cut.crossing_ab
    )
    ba_bytes = sum(
        sampler.bytes_in_window(lid, phase.start, phase.end)
        for lid in cut.crossing_ba
    )
    return PhaseAttribution(
        phase=phase,
        links=links,
        bisection_utilization_ab=_rate_utilization(
            ab_bytes, duration, cut.capacity_ab
        ),
        bisection_utilization_ba=_rate_utilization(
            ba_bytes, duration, cut.capacity_ba
        ),
    )


def _rate_utilization(nbytes: float, duration: float, capacity: float) -> float:
    if duration <= 0 or capacity <= 0:
        return 0.0
    return min(1.0, nbytes / duration / capacity)


def flow_latency_rows(sampler: LinkTimelineSampler) -> list[FlowLatencyRow]:
    """Per-flow latency split, worst mean latency first."""
    grouped: dict[tuple[int, int], list] = {}
    for delivery in sampler.deliveries:
        grouped.setdefault((delivery.flow_src, delivery.flow_dst), []).append(
            delivery
        )
    rows = []
    for (src, dst), deliveries in sorted(grouped.items()):
        count = len(deliveries)
        latency = sum(d.latency for d in deliveries) / count
        queueing = sum(d.queueing for d in deliveries) / count
        rows.append(
            FlowLatencyRow(
                flow_src=src,
                flow_dst=dst,
                packets=count,
                mean_latency=latency,
                mean_queueing=queueing,
                mean_transmission=latency - queueing,
            )
        )
    rows.sort(key=lambda row: row.mean_latency, reverse=True)
    return rows


def attribute(
    sampler: LinkTimelineSampler,
    cut: BisectionCut,
    phases: list[PhaseWindow] | None = None,
    top: int | None = None,
) -> BottleneckReport:
    """The full attribution pass over one sampled run.

    ``phases`` defaults to a single window covering the whole run; a
    join-level caller passes the modelled pipeline schedule instead so
    the report names the saturated links *per phase*.
    """
    horizon = sampler.horizon
    if phases is None:
        phases = [PhaseWindow("distribution", 0.0, horizon)]
    report = BottleneckReport(horizon=horizon)
    for phase in phases:
        if phase.duration <= 0:
            continue
        report.phases.append(attribute_phase(sampler, cut, phase, top=top))
    report.flows = flow_latency_rows(sampler)
    return report
