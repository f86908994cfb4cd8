"""Full-pipeline observability: spans, metrics, trace export.

One :class:`Observer` bundles the two measurement surfaces of a run —
a :class:`~repro.obs.spans.SpanTracer` (where time goes) and a
:class:`~repro.obs.metrics.MetricsRegistry` (how much of what moved) —
and is threaded through the join orchestrator, the shuffle simulator,
the fabric and the routing policies::

    from repro import MGJoin, Observer, dgx1_topology
    from repro.obs.export import write_chrome_trace

    observer = Observer()
    result = MGJoin(machine, observer=observer).run(workload)
    write_chrome_trace(observer, "join.json")   # chrome://tracing / Perfetto

The orchestrators (join, serving, routing decisions) hold an
``observer`` that is either a real :class:`Observer` or ``None`` and
guard with a plain ``is not None`` check.  The simulator holds none: an
observer is one of the fabric's recorders
(:class:`~repro.sim.recorder.Recorder`) and turns the simulator's events
into spans, metrics and stream events.  :data:`NULL_OBSERVER`
additionally offers no-op ``span()`` / ``instant()`` for call sites
that prefer unconditional ``with`` blocks.

Span/metric naming conventions and exporter formats are documented in
``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.meta import (
    RUN_ID_ENV,
    config_hash,
    current_run_id,
    run_id_for,
    run_metadata,
    run_scope,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, stable_float
from repro.obs.spans import (
    PIPELINE_TRACK,
    SIM,
    WALL,
    Instant,
    Span,
    SpanTracer,
)
from repro.sim.recorder import Recorder

#: Trace track of fault windows, fault instants and crash detection.
FAULT_TRACK = "faults"


#: Pipeline phases forwarded to an attached telemetry stream.  Only
#: these well-known names stream, so phase events stay bounded even if
#: callers open many ad-hoc spans.
PHASE_NAMES = frozenset(
    {
        "join",
        "histogram",
        "assignment",
        "global_partition",
        "shuffle",
        "local_partition",
        "probe",
    }
)


class Observer(Recorder):
    """Bundles one run's span tracer and metrics registry.

    Two optional live surfaces can be attached post-construction:

    * ``stream`` — a :class:`repro.obs.stream.TelemetryStream`; when
      set, pipeline-phase spans and simulator events are emitted as
      NDJSON events in real time.
    * ``conformance`` — a
      :class:`repro.obs.conformance.ConformanceProbe`; when set, the
      shuffle simulator instruments every routed transfer with its
      predicted ``T_R``/``D_R``.

    Both default to ``None``.  The observer is the last of the
    fabric's recorders (:mod:`repro.sim.recorder`): its hooks below
    write the per-batch and per-delivery metrics and every recovery,
    integrity, crash and fault instant, span and stream event.  Totals
    a component already counts are written once per run by
    :meth:`~repro.sim.fabric.Fabric.export_metrics`.
    """

    enabled = True

    def __init__(self, max_records: int = 2_000_000) -> None:
        self.spans = SpanTracer(max_records=max_records)
        self.metrics = MetricsRegistry()
        self.stream = None
        self.conformance = None

    # Convenience pass-throughs so instrumented code reads naturally.

    @contextmanager
    def _streamed_span(self, name: str, track: str, attrs: dict):
        import time as _time

        stream = self.stream
        stream.emit("phase", t=_time.time(), clock="wall", name=name, state="begin")
        try:
            with self.spans.span(name, track=track, **attrs) as span:
                yield span
        finally:
            stream.emit("phase", t=_time.time(), clock="wall", name=name, state="end")

    def span(self, name: str, track: str = PIPELINE_TRACK, **attrs):
        if self.stream is not None and name in PHASE_NAMES:
            return self._streamed_span(name, track, attrs)
        return self.spans.span(name, track=track, **attrs)

    def add_span(self, name: str, start: float, end: float, **kwargs):
        return self.spans.add_span(name, start, end, **kwargs)

    def instant(self, name: str, time_s: float, **kwargs):
        return self.spans.instant(name, time_s, **kwargs)

    def counter(self, name: str, **labels) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self.metrics.histogram(name, **labels)

    # Recorder hooks: what each simulator event becomes.

    def record_injection(self, node, route, batch) -> None:
        self.metrics.counter("shuffle.packets", route=str(route)).inc(len(batch))
        self.metrics.counter("shuffle.batches", gpu=node.gpu_id).inc()

    def record_delivery(self, packet, now) -> None:
        metrics = self.metrics
        metrics.histogram("shuffle.packet_hops").observe(packet.route.num_hops)
        metrics.histogram("shuffle.flow_latency_seconds").observe(
            now - packet.created_at
        )
        if self.stream is not None and (packet.attempts or packet.fallback):
            self.stream.emit(
                "packet.recovered", t=now, src=packet.flow_src,
                dst=packet.flow_dst,
            )

    def record_retry(self, gpu, packet, reason, rerouted, now) -> None:
        fields = dict(
            src=packet.flow_src, dst=packet.flow_dst,
            attempt=packet.attempts, reason=reason,
        )
        self.spans.instant(
            "packet.retry", now, track=f"gpu{gpu}", category="fault",
            **fields, route=str(packet.route), rerouted=rerouted,
        )
        if self.stream is not None:
            self.stream.emit("packet.retry", t=now, **fields, rerouted=rerouted)

    def record_fallback(self, gpu, packet, reason, penalty, now) -> None:
        flow = dict(src=packet.flow_src, dst=packet.flow_dst)
        self.spans.instant(
            "packet.fallback", now, track=f"gpu{gpu}", category="fault",
            **flow, attempts=packet.attempts, reason=reason,
            penalty_seconds=penalty,
        )
        if self.stream is not None:
            self.stream.emit(
                "packet.fallback", t=now, **flow, reason=reason,
                penalty_seconds=penalty,
            )

    def record_repair_spend(self, query, spent, now) -> None:
        if query and self.stream is not None:
            self.stream.emit(
                "query", t=now, action="retry", query=query, spent=spent
            )

    def record_integrity(self, kind, packet, now) -> None:
        if self.stream is not None:
            self.stream.emit(
                "integrity", t=now, kind=kind, src=packet.flow_src,
                dst=packet.flow_dst, sequence=packet.sequence,
            )

    def record_gpu_dead(self, gpu, crashed_at, now, config) -> None:
        self.spans.add_span(
            f"detect gpu{gpu}", crashed_at, now, track=FAULT_TRACK,
            category="fault", gpu=gpu,
        )
        self.spans.instant(
            "gpu.declared_dead", now, track=FAULT_TRACK, category="fault",
            gpu=gpu, detection_latency_seconds=now - crashed_at,
            miss_budget=config.miss_budget,
            heartbeat_interval=config.heartbeat_interval,
        )

    def record_fault(self, action, event, now) -> None:
        attrs = event.attrs()
        if action == "fault.inject":
            self.metrics.counter("faults.injected", kind=event.kind.value).inc()
        self.spans.instant(
            action, now, track=FAULT_TRACK, category="fault", **attrs
        )
        if self.stream is not None:
            self.stream.emit("fault", t=now, action=action, **attrs)
        if action == "fault.restore":
            self.spans.add_span(
                f"fault:{event.kind.value}", event.at, now, track=FAULT_TRACK,
                category="fault", **attrs,
            )

    def record_link_health(self, name, channel, now) -> None:
        if self.stream is not None:
            self.stream.emit(
                name, t=now, link=channel.spec.link_id, label=str(channel.spec)
            )


class _NullInstrument:
    """Accepts inc/set/add/observe and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class NullObserver:
    """Do-nothing stand-in so ``with observer.span(...)`` always works."""

    enabled = False
    spans = None
    metrics = None
    stream = None
    conformance = None

    _instrument = _NullInstrument()

    @contextmanager
    def span(self, name: str, track: str = PIPELINE_TRACK, **attrs):
        yield None

    def add_span(self, name: str, start: float, end: float, **kwargs):
        return None

    def instant(self, name: str, time_s: float, **kwargs):
        return None

    def counter(self, name: str, **labels) -> _NullInstrument:
        return self._instrument

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return self._instrument

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return self._instrument


#: Shared no-op observer; ``observer or NULL_OBSERVER`` is the idiom.
NULL_OBSERVER = NullObserver()

__all__ = [
    "Counter",
    "FAULT_TRACK",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "PHASE_NAMES",
    "PIPELINE_TRACK",
    "RUN_ID_ENV",
    "SIM",
    "Span",
    "SpanTracer",
    "WALL",
    "config_hash",
    "current_run_id",
    "run_id_for",
    "run_metadata",
    "run_scope",
    "stable_float",
]
