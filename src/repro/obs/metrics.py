"""A small labelled-metrics registry (counters, gauges, histograms).

The registry mirrors the shape of Prometheus-style client libraries at
a fraction of the surface: a metric family is a name, an instrument is
``family + frozen label set``, and lookups are get-or-create::

    registry.counter("link.bytes", link="gpu0->gpu1[nvlink]").inc(2 * MB)
    registry.gauge("board.pending").set(3)
    registry.histogram("board.staleness_seconds").observe(4.2e-6)

Hot paths should hold on to the returned instrument instead of
re-looking it up per event — instruments are plain objects with an
``inc``/``set``/``observe`` method and no locking (the simulator is
single-threaded).

``snapshot()`` renders everything into plain dicts, ready for JSON
persistence next to benchmark results.  Snapshots are *diff-stable*:
instruments are emitted in sorted order, label dicts are key-sorted,
and floats are rounded to 12 significant digits so two runs of the
same deterministic simulation serialize byte-identically and textual
diffs between ledger records stay readable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Histograms keep at most this many raw samples for percentiles; the
#: running count/sum/min/max stay exact beyond it.
HISTOGRAM_SAMPLE_CAP = 4096


def stable_float(value: float) -> float:
    """Round to 12 significant digits for diff-stable serialization.

    Accumulation order can perturb the last couple of bits of a float
    sum (e.g. when a parallel run merges in a different order); 12
    significant digits is far below any metric's meaningful precision
    but above that noise floor, so snapshots of equivalent runs
    serialize identically.
    """
    if value != value or value in (float("inf"), float("-inf")):
        return value
    return float(f"{value:.12g}")


def _stable_labels(labels: dict) -> dict:
    """The label dict re-emitted with sorted keys."""
    return {key: labels[key] for key in sorted(labels)}


@dataclass
class Counter:
    """Monotonically increasing value."""

    name: str
    labels: dict
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins value."""

    name: str
    labels: dict
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass
class Histogram:
    """Streaming distribution summary with a bounded raw-sample tail."""

    name: str
    labels: dict
    count: int = 0
    total: float = 0.0
    vmin: float = float("inf")
    vmax: float = float("-inf")
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        if len(self.samples) < HISTOGRAM_SAMPLE_CAP:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile over the retained samples."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[index]


class MetricsRegistry:
    """Get-or-create home for every instrument of one run."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}
        self._kinds: dict[tuple, str] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, kind: str, name: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._KINDS[kind](name=name, labels=dict(labels))
            self._instruments[key] = instrument
            self._kinds[key] = kind
        elif self._kinds[key] != kind:
            raise ValueError(
                f"metric {name!r}{labels} already registered as "
                f"{self._kinds[key]}, not {kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # -- views -------------------------------------------------------------

    def instruments(self) -> list:
        return list(self._instruments.values())

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 when never touched)."""
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            return 0.0
        return instrument.value  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        return sum(
            instrument.value
            for (family, _), instrument in self._instruments.items()
            if family == name and isinstance(instrument, Counter)
        )

    def snapshot(self) -> dict:
        """Everything as plain JSON-ready dicts, grouped by kind.

        The output is diff-stable: instruments appear in sorted
        ``(name, labels)`` order, label keys are sorted, and floats are
        normalized via :func:`stable_float`.
        """
        out: dict[str, list[dict]] = {"counters": [], "gauges": [], "histograms": []}
        for key, instrument in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            kind = self._kinds[key]
            if kind == "histogram":
                hist: Histogram = instrument  # type: ignore[assignment]
                out["histograms"].append(
                    {
                        "name": hist.name,
                        "labels": _stable_labels(hist.labels),
                        "count": hist.count,
                        "total": stable_float(hist.total),
                        "min": stable_float(hist.vmin if hist.count else 0.0),
                        "max": stable_float(hist.vmax if hist.count else 0.0),
                        "mean": stable_float(hist.mean),
                        "p50": stable_float(hist.percentile(50)),
                        "p95": stable_float(hist.percentile(95)),
                        "p99": stable_float(hist.percentile(99)),
                    }
                )
            else:
                out[kind + "s"].append(
                    {
                        "name": instrument.name,  # type: ignore[union-attr]
                        "labels": _stable_labels(
                            instrument.labels  # type: ignore[union-attr]
                        ),
                        "value": stable_float(
                            instrument.value  # type: ignore[union-attr]
                        ),
                    }
                )
        return out

    def to_json(self, indent: int | None = 1) -> str:
        """The snapshot as canonical JSON (sorted keys, stable floats).

        Two registries holding equal values serialize to the exact same
        text, so ledger records containing metric snapshots diff
        cleanly across runs.
        """
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
