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

The simulator, the routing policies and the query scheduler hold no
observer: an observer is one of their recorders
(:class:`~repro.sim.recorder.Recorder`) and turns each event and
run-level result they report (a shuffle or serve report, a query's
lifecycle step) into spans, metrics and stream events.  ``MGJoin``
holds an ``observer`` that is a real :class:`Observer` or ``None``: it
times its own phases through it and hands it the finished join
(:meth:`Observer.record_join`).  :data:`NULL_OBSERVER` offers no-op
``span()`` / ``counter()`` for call sites that prefer unconditional
``with`` blocks.

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
    event or routing decision, the run's totals once the engine
    drains, and what a run-level result (shuffle report, query step,
    serve report, join) shows.  :attr:`decisions` keeps each decision
    for the audit.
    """

    enabled = True

    def __init__(self, max_records: int = 2_000_000) -> None:
        self.spans = SpanTracer(max_records=max_records)
        self.metrics = MetricsRegistry()
        self.stream = None
        self.conformance = None
        #: Every routing decision reported, in report order.
        self.decisions: list = []
        #: Joins reported through :meth:`record_join`.
        self.joins = 0
        #: The fabric of the solo shuffle in flight, until it drains.
        self._solo = None

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

    def record_shuffle_started(self, fabric, gpus, policy, faulted) -> None:
        self._solo = fabric
        if self.stream is not None:
            self.stream.emit(
                "run.started", t=fabric.engine.now, clock="sim", gpus=gpus,
                links=len(fabric.links), policy=policy, faulted=faulted,
            )

    def record_drained(self, fabric) -> None:
        """Write the run's totals, then the conformance probe's summary.

        Each counter is a total some component already keeps:
        ``link.bytes`` and ``link.transfers`` per link, the board's
        broadcasts, then :data:`GROUP_TOTALS` and
        ``shuffle.delivered_bytes`` per GPU summed over every flow group
        on the fabric.  A total that stays at zero gets no series.  The
        fabric of a solo shuffle streams its ``kernel`` event first and
        its ``run.finished`` event last; a served fabric streams neither.
        """
        solo = fabric is self._solo
        self._solo = None
        stream = self.stream
        engine = fabric.engine
        if solo and stream is not None:
            stream.emit("kernel", t=engine.now, clock="sim", stats=engine.stats)
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
            if stream is not None:
                stream.emit(
                    "conformance", t=engine.now, clock="sim", **probe.summary()
                )
            for name, value in probe.gauges().items():
                metrics.gauge(name).set(value)
        if solo and stream is not None:
            stream.emit("run.finished", t=engine.now, clock="sim", elapsed=engine.now)
            stream.flush()

    def record_report(self, fabric, report) -> None:
        gauge = self.metrics.gauge
        for name, value in (
            ("elapsed_seconds", report.elapsed),
            ("payload_bytes", report.payload_bytes),
            ("wire_bytes", report.wire_bytes),
            ("buffer_syncs", report.buffer_sync_count),
            ("board_broadcasts", report.board_broadcast_count),
        ):
            gauge(f"shuffle.{name}").set(value)
        for name, value in fabric.engine.stats.items():
            gauge(f"engine.{name}").set(value)
        rec = report.recovery
        if rec is not None:
            for name, value in (
                ("crashed_gpus", len(rec.crashed_gpus)),
                ("detection_latency_seconds", rec.max_detection_latency),
                ("reshuffled_bytes", rec.reshuffled_bytes),
                ("host_resent_bytes", rec.host_resent_bytes),
                ("checkpoint_restored_bytes", rec.checkpoint_restored_bytes),
                ("bytes_discarded", rec.bytes_discarded),
                ("elapsed_seconds", rec.recovery_elapsed),
                ("time_share", rec.recovery_share(report.elapsed)),
            ):
                gauge(f"recovery.{name}").set(value)

    def record_query(self, action, name, now, **fields) -> None:
        if action == "rejected":
            self.metrics.counter("serve.shed", reason=fields["reason"]).inc()
        if self.stream is not None:
            self.stream.emit(
                "query", t=now, clock="sim", action=action, query=name, **fields
            )

    def record_serve(self, report) -> None:
        gauge = self.metrics.gauge
        for name in ("completed", "rejected", "failed", "in_flight_peak", "queue_peak"):
            gauge(f"serve.{name}").set(getattr(report, name))
        gauge("serve.elapsed_seconds").set(report.elapsed)
        admitted = [o for o in report.outcomes if o.admitted_at is not None]
        if admitted:
            gauge("serve.retention_ratio").set(
                sum(1 for o in admitted if o.status == "completed") / len(admitted)
            )
        for outcome in report.outcomes:
            if outcome.latency is not None:
                gauge("serve.latency_seconds", query=outcome.name).set(
                    outcome.latency
                )
            gauge("serve.queue_wait_seconds", query=outcome.name).set(
                outcome.queue_wait
            )
        if self.stream is not None:
            self.stream.flush()

    def record_join(self, result, joined, overlapped) -> None:
        """Draw the modelled phase schedule as simulated-clock spans.

        This is the "where does simulated time go" view (Figure 12):
        compute phases on one track, the distribution on a second, so
        Perfetto shows how much transfer hid under compute.  A
        crash-recovered join adds per-GPU lanes (:meth:`_crash_lanes`).
        """
        self.joins += 1
        breakdown = result.breakdown
        report = result.shuffle_report
        distribution_time = report.elapsed if report is not None else 0.0
        global_pass_time = joined.global_pass_time
        t_hist = breakdown.histogram
        t_global_end = t_hist + global_pass_time
        local_total = breakdown.partition_compute - global_pass_time
        add_span = self.spans.add_span
        track = "pipeline (sim)"
        add_span("histogram", 0.0, t_hist, track=track, category="phase")
        add_span(
            "global_partition", t_hist, t_global_end, track=track, category="phase"
        )
        if overlapped:
            # Distribution runs concurrently with the compute chain;
            # only its un-hidden slice extends the critical path.
            distribution_start = t_hist
            local_start = t_global_end
        else:
            # Transfer-then-compute: the full transfer sits between the
            # global and local passes.
            distribution_start = t_global_end
            local_start = t_global_end + breakdown.distribution_exposed
        local_end = local_start + local_total
        add_span(
            "local_partition", local_start, local_end, track=track,
            category="phase",
        )
        if distribution_time > 0:
            add_span(
                "distribution",
                distribution_start,
                distribution_start + distribution_time,
                track="network (sim)",
                category="phase",
                exposed_seconds=breakdown.distribution_exposed,
                overlapped=overlapped,
            )
        probe_start = (
            t_hist + breakdown.partition_compute + breakdown.distribution_exposed
        )
        probe_end = probe_start + breakdown.probe
        add_span("probe", probe_start, probe_end, track=track, category="phase")
        sim_recovery = report.recovery if report is not None else None
        if joined.dead_gpus and sim_recovery is not None and sim_recovery.crashed_at:
            self._crash_lanes(
                joined.gpu_ids,
                sim_recovery.crashed_at,
                distribution_start,
                (("local_partition", local_start, local_end),
                 ("probe", probe_start, probe_end)),
            )

    def _crash_lanes(self, gpu_ids, crashed_at, distribution_start, phases) -> None:
        """Per-GPU phase spans for a crash-recovered join.

        Crash times live on the shuffle engine clock, which starts at
        ``distribution_start`` of the pipeline timeline.  Spans of a
        crashed GPU are clamped to end at its crash instant — the trace
        shows, per GPU, that no compute happened after the crash.
        """
        for gpu_id in gpu_ids:
            track = f"gpu{gpu_id} (sim)"
            cutoff = None
            if gpu_id in crashed_at:
                cutoff = distribution_start + crashed_at[gpu_id]
                self.spans.instant(
                    "gpu.crashed", cutoff, track=track, category="fault",
                    gpu=gpu_id,
                )
            for name, start, end in phases:
                if cutoff is not None:
                    if start >= cutoff:
                        continue
                    end = min(end, cutoff)
                self.spans.add_span(
                    name, start, end, track=track, category="phase",
                    crashed=cutoff is not None,
                )

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
