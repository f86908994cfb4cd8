"""Link congestion observatory: time-resolved analysis of sampled runs.

Built on PR 1's span/metrics layer, this subpackage turns one sampled
simulation run into answers the end-of-run aggregates cannot give:

* :mod:`repro.obs.analyze.timeline` — when each link was busy and how
  deep its queue ran (:class:`LinkTimelineSampler`, bucketed into a
  :class:`LinkTimeline`),
* :mod:`repro.obs.analyze.attribution` — which link capped which
  phase, the minimum-bisection's share of the phase, and per-flow
  queueing-vs-transmission splits (:func:`attribute`),
* :mod:`repro.obs.analyze.regret` — per-batch routing regret from
  replaying ``Observer.decisions`` against the realized timelines
  (:func:`audit_decisions`),
* :mod:`repro.obs.analyze.report` — ASCII/CSV/JSON heatmaps and
  terminal reports (:func:`ascii_heatmap`, :func:`write_analysis`),
* :mod:`repro.obs.analyze.observed` — :class:`ObservedRun`, the one
  builder that wires a run's recorders and runs the two passes above.

The CLI front-end is ``python -m repro analyze``; the perf-regression
gate (``repro perf``) persists the headline numbers into committed
``BENCH_*.json`` baselines.
"""

from repro.obs.analyze.attribution import (
    BottleneckReport,
    FlowLatencyRow,
    LinkSaturation,
    PhaseAttribution,
    PhaseWindow,
    attribute,
    attribute_phase,
    flow_latency_rows,
)
from repro.obs.analyze.observed import ObservedRun
from repro.obs.analyze.regret import (
    DecisionAudit,
    RegretReport,
    audit_decisions,
    realized_arm,
)
from repro.obs.analyze.report import (
    ascii_heatmap,
    heatmap_csv,
    heatmap_json,
    regret_csv,
    render_bottleneck_report,
    render_regret_table,
    write_analysis,
)
from repro.obs.analyze.timeline import (
    FlowDelivery,
    LinkSeries,
    LinkTimeline,
    LinkTimelineSampler,
    TransferSample,
)

__all__ = [
    "BottleneckReport",
    "DecisionAudit",
    "FlowDelivery",
    "FlowLatencyRow",
    "LinkSaturation",
    "LinkSeries",
    "LinkTimeline",
    "LinkTimelineSampler",
    "ObservedRun",
    "PhaseAttribution",
    "PhaseWindow",
    "RegretReport",
    "TransferSample",
    "ascii_heatmap",
    "attribute",
    "attribute_phase",
    "audit_decisions",
    "flow_latency_rows",
    "heatmap_csv",
    "heatmap_json",
    "realized_arm",
    "regret_csv",
    "render_bottleneck_report",
    "render_regret_table",
    "write_analysis",
]
