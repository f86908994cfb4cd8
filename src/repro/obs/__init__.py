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
from operator import attrgetter

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

#: Run-end counters a flow group's components keep: metric name ->
#: ``"<ShuffleGroup attribute>.<count on that component>"``.
GROUP_TOTALS = {
    "faults.retries": "recovery.retries",
    "faults.reroutes": "recovery.reroutes",
    "faults.fallbacks": "recovery.fallbacks",
    "faults.packets_recovered": "recovery.packets_recovered",
    "integrity.retransmits": "integrity.stats.retransmits",
    "integrity.checksum_failures": "integrity.stats.checksum_failures",
    "integrity.dup_dropped": "integrity.stats.dup_dropped",
    "recovery.crashes_detected": "coordinator.crashes_detected",
}


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
    write every metric, instant, span and stream event of a simulator
    event or routing decision, and the run's totals once the engine
    drains.  :attr:`decisions` keeps each decision for the audit.
    """

    enabled = True

    def __init__(self, max_records: int = 2_000_000) -> None:
        self.spans = SpanTracer(max_records=max_records)
        self.metrics = MetricsRegistry()
        self.stream = None
        self.conformance = None
        #: Every routing decision reported, in report order.
        self.decisions: list = []

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

    def record_fabric(self, fabric) -> None:
        if self.stream is not None:
            from repro.obs.stream import LinkPump

            LinkPump(self.stream, fabric.engine, fabric.links)

    def record_drained(self, fabric) -> None:
        """Write the run's totals, then the conformance probe's summary.

        Each counter is a total some component already keeps:
        ``link.bytes`` and ``link.transfers`` per link, the board's
        broadcasts, then :data:`GROUP_TOTALS` and
        ``shuffle.delivered_bytes`` per GPU summed over every flow group
        on the fabric.  A total that stays at zero gets no series.
        """
        metrics = self.metrics
        for channel in fabric.links.values():
            if channel.transfers:
                label = str(channel.spec)
                metrics.counter("link.bytes", link=label).inc(channel.bytes_sent)
                metrics.counter("link.transfers", link=label).inc(
                    channel.transfers
                )
        board = fabric.board
        if board.broadcast_count:
            metrics.counter("board.broadcasts").inc(board.broadcast_count)
        if board.suppressed_count:
            metrics.counter("board.suppressed").inc(board.suppressed_count)
        for group in fabric.groups:
            for name, path in GROUP_TOTALS.items():
                part, _, count = path.partition(".")
                component = getattr(group, part)
                total = attrgetter(count)(component) if component is not None else 0
                if total:
                    metrics.counter(name).inc(total)
            for gpu_id, node in group.nodes.items():
                if node.stats.delivered_bytes:
                    metrics.counter("shuffle.delivered_bytes", gpu=gpu_id).inc(
                        node.stats.delivered_bytes
                    )
        probe = self.conformance
        if probe is not None:
            if self.stream is not None:
                self.stream.emit(
                    "conformance", t=fabric.engine.now, clock="sim",
                    **probe.summary(),
                )
            for name, value in probe.gauges().items():
                metrics.gauge(name).set(value)

    def record_decision(self, decision) -> None:
        self.decisions.append(decision)
        metrics = self.metrics
        if decision.stale_reads is not None:
            staleness = metrics.histogram("board.staleness_seconds")
            for error in decision.stale_reads:
                staleness.observe(error)
        src = decision.src
        chosen = decision.chosen
        routes = [str(route) for route in decision.routes]
        attrs = dict(
            src=src,
            dst=decision.dst,
            policy=decision.policy,
            route=str(chosen),
            routes=routes,
            candidates=len(routes),
            batch_bytes=decision.batch_bytes,
            packet_bytes=decision.packet_bytes,
            direct=chosen.is_direct,
            staleness=decision.staleness,
            **decision.extra,
        )
        if decision.estimates is not None:
            attrs["est"] = decision.estimates
        self.spans.instant(
            "arm.decision", decision.time, track=f"gpu{src}", category="route",
            **attrs,
        )
        metrics.counter("route.decisions", src=src, dst=decision.dst).inc()
        if not chosen.is_direct:
            metrics.counter("route.multi_hop_decisions").inc()

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
