"""Span-based execution tracing (the "where does time go" substrate).

A :class:`SpanTracer` records two kinds of records:

* **Spans** — named intervals with a start, an end, a *track* (the
  lane they render on: ``pipeline``, ``gpu3``, a link label, ...) and a
  parent, forming a nesting tree.  Wall-clock spans are opened with the
  :meth:`SpanTracer.span` context manager around real work; simulated
  intervals (whose timestamps live on the discrete-event clock) are
  appended with :meth:`SpanTracer.add_span`.
* **Instants** — zero-duration marker events, e.g. one adaptive-routing
  decision with its ARM terms attached.

Every record carries a ``clock`` tag (``"wall"`` or ``"sim"``) so the
exporters can keep the two time axes on separate Chrome-trace process
rows instead of interleaving incomparable timestamps.

The tracer is bounded: past ``max_records`` additions are counted in
:attr:`SpanTracer.dropped` instead of being stored, and the first drop
emits a :class:`RuntimeWarning` so truncated traces never masquerade as
complete ones.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Clock tags carried by every span/instant.
WALL = "wall"
SIM = "sim"

#: Default lane for pipeline-level wall spans.
PIPELINE_TRACK = "pipeline"


@dataclass
class Span:
    """One named interval on one track of one clock."""

    span_id: int
    name: str
    start: float
    end: float
    track: str = PIPELINE_TRACK
    clock: str = WALL
    #: Free-form grouping tag ("phase", "link", "route", ...).
    category: str = ""
    #: ``span_id`` of the enclosing span, or ``None`` at the root.
    parent_id: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Instant:
    """One zero-duration marker event."""

    name: str
    time: float
    track: str = PIPELINE_TRACK
    clock: str = WALL
    category: str = ""
    attrs: dict = field(default_factory=dict)


class SpanTracer:
    """Collects :class:`Span` and :class:`Instant` records."""

    def __init__(self, max_records: int = 2_000_000) -> None:
        if max_records < 1:
            raise ValueError("max_records must be positive")
        self.max_records = max_records
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        #: Records refused because ``max_records`` was reached.
        self.dropped = 0
        self._warned_drop = False
        self._next_id = 0
        self._stack: list[Span] = []
        #: Wall-clock zero point; wall spans are relative to this.
        self.epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)

    @property
    def current(self) -> Span | None:
        """The innermost open wall-clock span, if any."""
        return self._stack[-1] if self._stack else None

    def _admit(self) -> bool:
        if len(self) >= self.max_records:
            self.dropped += 1
            if not self._warned_drop:
                self._warned_drop = True
                warnings.warn(
                    f"SpanTracer reached max_records={self.max_records}; "
                    "further records are dropped (see .dropped)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return False
        return True

    @contextmanager
    def span(self, name: str, track: str = PIPELINE_TRACK, **attrs):
        """Open a wall-clock span around a ``with`` body.

        The span nests under the innermost span already open via this
        method and is recorded even when the body raises.  Yields the
        :class:`Span` so the body may add attributes.
        """
        record = Span(
            span_id=self._next_id,
            name=name,
            start=time.perf_counter() - self.epoch,
            end=0.0,
            track=track,
            clock=WALL,
            category="phase",
            parent_id=self._stack[-1].span_id if self._stack else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter() - self.epoch
            if self._admit():
                self.spans.append(record)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        track: str = PIPELINE_TRACK,
        clock: str = SIM,
        category: str = "",
        parent_id: int | None = None,
        **attrs,
    ) -> Span | None:
        """Append a pre-timed span (simulated or reconstructed).

        Returns the stored :class:`Span`, or ``None`` if it was dropped
        by the record cap.
        """
        if end < start:
            raise ValueError(f"span {name!r} ends ({end}) before it starts ({start})")
        if not self._admit():
            return None
        record = Span(
            span_id=self._next_id,
            name=name,
            start=start,
            end=end,
            track=track,
            clock=clock,
            category=category,
            parent_id=parent_id,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(record)
        return record

    def instant(
        self,
        name: str,
        time_s: float,
        *,
        track: str = PIPELINE_TRACK,
        clock: str = SIM,
        category: str = "",
        **attrs,
    ) -> Instant | None:
        """Append a marker event; returns ``None`` if dropped."""
        if not self._admit():
            return None
        record = Instant(
            name=name,
            time=time_s,
            track=track,
            clock=clock,
            category=category,
            attrs=dict(attrs),
        )
        self.instants.append(record)
        return record

    # -- queries -----------------------------------------------------------

    def find(
        self,
        name: str | None = None,
        *,
        clock: str | None = None,
        category: str | None = None,
        track: str | None = None,
    ) -> list[Span]:
        """Spans matching every given filter, in record order."""
        return [
            span
            for span in self.spans
            if (name is None or span.name == name)
            and (clock is None or span.clock == clock)
            and (category is None or span.category == category)
            and (track is None or span.track == track)
        ]

    def find_instants(
        self, name: str | None = None, *, category: str | None = None
    ) -> list[Instant]:
        return [
            inst
            for inst in self.instants
            if (name is None or inst.name == name)
            and (category is None or inst.category == category)
        ]

    def self_times(self, clock: str | None = None) -> dict[str, float]:
        """Exclusive (self) seconds per span name.

        A span's self time is its duration minus the duration of its
        direct children — the time spent *in* that phase rather than in
        a nested one, which is what inclusive durations hide (a ``join``
        span always dominates an inclusive ranking even when all its
        time sits in children).  Aggregated by name; clamped at zero so
        clock jitter between a parent and its children never reports
        negative time.  ``clock`` restricts to one time axis.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration
                )
        out: dict[str, float] = {}
        for span in self.spans:
            if clock is not None and span.clock != clock:
                continue
            exclusive = max(0.0, span.duration - child_time.get(span.span_id, 0.0))
            out[span.name] = out.get(span.name, 0.0) + exclusive
        return out
