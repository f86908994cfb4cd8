"""Live telemetry stream: bounded NDJSON event bus on the engine clock.

The stream is the real-time counterpart to the post-hoc span/metric
exporters.  Producers (engine pumps, link channels, the fault injector,
the recovery layer, the sweep harness) emit small schema-versioned dict
events; the stream serialises them as NDJSON to a sink and fans them out
to in-process subscribers (e.g. the alert engine, ``repro top``).

Design constraints:

* **Bounded overhead.**  Every hook is guarded by ``observer.stream is
  not None`` so a run without streaming pays nothing.  With streaming
  on, per-link samples are taken on a fixed sim-clock interval by a
  pump built on :meth:`Engine.every` (which self-terminates once only
  housekeeping ticks remain), link samples are truncated to the
  busiest ``top`` links, and the stream stops recording after
  ``max_events`` (counting drops instead of growing without bound).
* **Determinism.**  Pump callbacks are read-only with respect to
  simulator state; with streaming disabled nothing is scheduled, so
  digests stay byte-identical.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "STREAM_SCHEMA_VERSION",
    "EVENT_TYPES",
    "TelemetryStream",
    "LinkPump",
    "validate_event",
    "read_events",
]

STREAM_SCHEMA_VERSION = 1

#: Known event types and the extra fields each one requires.
EVENT_TYPES: dict[str, tuple[str, ...]] = {
    "run.started": (),
    "run.finished": ("elapsed",),
    "phase": ("name", "state"),
    "links": ("samples", "max_util", "max_queue"),
    "kernel": ("stats",),
    "fault": ("action", "kind"),
    "link.down": ("link",),
    "link.up": ("link",),
    "packet.retry": ("reason",),
    "packet.fallback": ("reason",),
    "packet.recovered": (),
    "integrity": ("kind",),
    "sweep.started": ("points",),
    "sweep.point": ("run_id",),
    "sweep.failed": ("error",),
    "sweep.finished": ("finished",),
    "alert": ("rule", "severity"),
    "conformance": ("count",),
    #: Serving-layer query lifecycle (submitted/queued/admitted/
    #: rejected/delivered/completed/deadline-expired/...).
    "query": ("action", "query"),
}

_CLOCKS = ("sim", "wall")


class TelemetryStream:
    """Schema-versioned NDJSON event bus with bounded memory/IO.

    ``sink`` may be a path (``"-"`` for stdout), an open text file, or
    ``None`` for subscriber-only operation (used by tests and by the
    alert engine when no file is wanted).
    """

    def __init__(
        self,
        sink: "str | Path | io.TextIOBase | None" = None,
        *,
        max_events: int = 1_000_000,
        sample_interval: float = 1e-3,
        top_links: int = 8,
    ) -> None:
        self.max_events = max_events
        self.sample_interval = sample_interval
        self.top_links = top_links
        self.events_emitted = 0
        self.events_dropped = 0
        self._subscribers: list[Callable[[dict], None]] = []
        self._owns_sink = False
        if sink is None:
            self._sink = None
        elif hasattr(sink, "write"):
            self._sink = sink
        elif str(sink) == "-":
            import sys

            self._sink = sys.stdout
        else:
            path = Path(sink)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = path.open("w", encoding="utf-8")
            self._owns_sink = True

    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[dict], None]) -> None:
        """Register ``callback`` to receive every event dict as emitted."""
        self._subscribers.append(callback)

    def emit(self, type: str, *, t: float, clock: str = "sim", **fields) -> None:
        """Emit one event.  Drops (and counts) once ``max_events`` is hit."""
        if self.events_emitted >= self.max_events:
            self.events_dropped += 1
            return
        event = {"v": STREAM_SCHEMA_VERSION, "type": type, "t": t, "clock": clock}
        event.update(fields)
        self.events_emitted += 1
        if self._sink is not None:
            try:
                self._sink.write(json.dumps(event, separators=(",", ":")) + "\n")
            except ValueError:
                # Sink closed under us (e.g. stdout gone); keep subscribers alive.
                self._sink = None
        for callback in self._subscribers:
            callback(event)

    def flush(self) -> None:
        if self._sink is not None:
            try:
                self._sink.flush()
            except ValueError:
                self._sink = None

    def close(self) -> None:
        self.flush()
        if self._owns_sink and self._sink is not None:
            self._sink.close()
        self._sink = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        return {
            "events_emitted": self.events_emitted,
            "events_dropped": self.events_dropped,
        }

    def wall(self) -> float:
        """Wall-clock timestamp helper for non-simulated producers."""
        return time.time()


class LinkPump:
    """Periodic per-link utilization/queue sampler bound to an engine.

    Built on :meth:`Engine.every`, so the pump stops rescheduling once
    only housekeeping ticks remain on the engine — it never keeps a
    finished simulation alive, even when multiple periodic probes
    coexist.
    """

    def __init__(self, stream: TelemetryStream, engine, links: dict) -> None:
        self.stream = stream
        self.engine = engine
        self.links = links
        self.interval = stream.sample_interval
        self._busy_prev = {link_id: 0.0 for link_id in links}
        engine.every(self.interval, self.sample)

    def sample(self) -> None:
        now = self.engine.now
        samples = []
        for link_id, link in self.links.items():
            busy = link.busy_time
            util = (busy - self._busy_prev[link_id]) / self.interval
            self._busy_prev[link_id] = busy
            util = min(max(util, 0.0), 1.0)
            queue = link.queue_delay()
            if util > 0.0 or queue > 0.0:
                samples.append(
                    {
                        "link": link_id,
                        "util": round(util, 6),
                        "queue": round(queue, 9),
                        "up": link.up,
                    }
                )
        samples.sort(key=lambda s: (-s["util"], -s["queue"], s["link"]))
        del samples[self.stream.top_links :]
        max_util = max((s["util"] for s in samples), default=0.0)
        max_queue = max((s["queue"] for s in samples), default=0.0)
        self.stream.emit(
            "links",
            t=now,
            clock="sim",
            samples=samples,
            max_util=max_util,
            max_queue=max_queue,
        )


def validate_event(event: object) -> list[str]:
    """Validate one decoded stream event; returns a list of problems."""
    problems: list[str] = []
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, expected object"]
    if event.get("v") != STREAM_SCHEMA_VERSION:
        problems.append(f"schema version {event.get('v')!r} != {STREAM_SCHEMA_VERSION}")
    etype = event.get("type")
    if not isinstance(etype, str):
        problems.append(f"missing/invalid type: {etype!r}")
        return problems
    if etype not in EVENT_TYPES:
        problems.append(f"unknown event type {etype!r}")
        return problems
    t = event.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        problems.append(f"{etype}: t is {t!r}, expected number")
    if event.get("clock") not in _CLOCKS:
        problems.append(f"{etype}: clock {event.get('clock')!r} not in {_CLOCKS}")
    for field in EVENT_TYPES[etype]:
        if field not in event:
            problems.append(f"{etype}: missing field {field!r}")
    if etype == "links":
        samples = event.get("samples")
        if not isinstance(samples, list):
            problems.append("links: samples is not a list")
        else:
            for sample in samples:
                if not isinstance(sample, dict) or "link" not in sample:
                    problems.append(f"links: malformed sample {sample!r}")
                    break
    if etype == "phase" and event.get("state") not in ("begin", "end"):
        problems.append(f"phase: state {event.get('state')!r} not begin/end")
    return problems


def read_events(path: "str | Path") -> Iterable[dict]:
    """Yield decoded events from an NDJSON stream file, skipping torn lines."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue
