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

Instrumented code holds an ``observer`` that is either a real
:class:`Observer` or ``None``; the hot paths guard with a plain
``is not None`` check so a run without observability pays only that.
:data:`NULL_OBSERVER` additionally offers no-op ``span()`` /
``instant()`` for call sites that prefer unconditional ``with`` blocks.

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


class Observer:
    """Bundles one run's span tracer and metrics registry.

    Two optional live surfaces can be attached post-construction:

    * ``stream`` — a :class:`repro.obs.stream.TelemetryStream`; when
      set, pipeline-phase spans and simulator hooks emit NDJSON events
      in real time.
    * ``conformance`` — a
      :class:`repro.obs.conformance.ConformanceProbe`; when set, the
      shuffle simulator instruments every routed transfer with its
      predicted ``T_R``/``D_R``.

    Both default to ``None`` and every hook guards on that, so a run
    without them pays nothing.  The simulator reports link and packet
    activity to the probe through the fabric's recorder tuple
    (:class:`~repro.sim.fabric.Fabric`); per-link and board metrics are
    written once per run by :meth:`~repro.sim.fabric.Fabric.export_metrics`.
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
