"""Time-resolved link telemetry (the congestion observatory's substrate).

PR 1's `LinkStats` only answers *how much* a link moved over a whole
run.  The :class:`LinkTimelineSampler` answers *when*: it hooks into
:class:`repro.sim.linksim.LinkChannel` (every ``commit`` / ``fulfill``
/ ``transmit`` records a sample on the simulated clock) and into the
:class:`repro.sim.engine.Engine` (a periodic probe reads every link's
queue delay at a fixed interval and stores it when it changed, so a
draining wire or a fault penalty shows between queue events too).

Three raw record streams come out of a sampled run:

* **transfers** — per-link ``(submit, start, end, bytes)`` intervals;
  ``start - submit`` is the wire-FIFO wait, ``end - start`` the service
  time,
* **queue samples** — per-link ``(time, delay)`` step function of the
  perceived queueing delay (wire backlog + committed load, the ``Q_i``
  of the paper's Eq. 4); the probe stores only its change points,
  which :meth:`~LinkTimelineSampler.queue_delay_at` and the heatmap
  bucketing read alike,
* **deliveries** — per-flow packet latencies with the route's
  uncontended (ideal) time, so latency splits into queueing vs
  transmission.

:meth:`LinkTimelineSampler.timeline` buckets the streams into a
:class:`LinkTimeline`: per-link utilization and queue-depth
time-series ready for heatmaps and bottleneck attribution.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.sim.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sim.gpusim import Packet
    from repro.sim.linksim import LinkChannel


class TransferSample(NamedTuple):
    """One packet's passage over one link (one per booked transfer)."""

    submit: float
    start: float
    end: float
    nbytes: int

    @property
    def wait(self) -> float:
        """Seconds spent queued behind the link's FIFO backlog."""
        return self.start - self.submit

    @property
    def service(self) -> float:
        return self.end - self.start


class FlowDelivery(NamedTuple):
    """One delivered packet, with its uncontended-route reference time."""

    flow_src: int
    flow_dst: int
    route: str
    hops: int
    payload_bytes: int
    created_at: float
    delivered_at: float
    #: Sum of link service times along the route with empty queues.
    ideal_latency: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.created_at

    @property
    def queueing(self) -> float:
        """The latency share not explained by uncontended transmission."""
        return max(0.0, self.latency - self.ideal_latency)


@dataclass
class LinkSeries:
    """One link's bucketed time-series."""

    link_id: int
    label: str
    #: Fraction of each bucket the wire was busy, in [0, 1].
    utilization: list[float]
    #: Max perceived queue delay (seconds) seen in each bucket.
    queue_delay: list[float]
    #: Bytes whose transmission overlapped each bucket (prorated).
    bytes: list[float]

    @property
    def mean_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return sum(self.utilization) / len(self.utilization)

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes)


@dataclass
class LinkTimeline:
    """Bucketed utilization / queue-depth series for every active link."""

    horizon: float
    num_buckets: int
    series: dict[int, LinkSeries] = field(default_factory=dict)

    @property
    def bucket_width(self) -> float:
        if self.num_buckets == 0:
            return 0.0
        return self.horizon / self.num_buckets

    def ranked(self, top: int | None = None) -> list[LinkSeries]:
        """Series ordered by total busy time, busiest first."""
        ordered = sorted(
            self.series.values(),
            key=lambda s: (sum(s.utilization), s.label),
            reverse=True,
        )
        return ordered if top is None else ordered[:top]


class LinkTimelineSampler(Recorder):
    """Records per-link busy/queue intervals on the simulated clock.

    Bind one sampler to one simulation run::

        sampler = LinkTimelineSampler()
        report = ShuffleSimulator(machine, gpus, sampler=sampler).run(
            flows, policy
        )
        timeline = sampler.timeline(num_buckets=60)

    ``sample_interval`` controls the periodic engine probe; ``None``
    disables it (event-driven samples from commit/fulfill/transmit are
    still recorded).  The probe stops rescheduling itself once it is
    the only event left, so it never keeps a finished run alive.
    """

    def __init__(self, sample_interval: float | None = 100e-6) -> None:
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive (or None)")
        self.sample_interval = sample_interval
        self.engine: "Engine | None" = None
        self._links: dict[int, "LinkChannel"] = {}
        self.labels: dict[int, str] = {}
        self.transfers: dict[int, list[TransferSample]] = {}
        #: Per-link ``(times, delays)`` parallel arrays, appended in
        #: nondecreasing simulation-time order: the change points of the
        #: link's queue-delay step function (see :meth:`_probe`).
        self._queue: dict[int, tuple[list[float], list[float]]] = {}
        #: The periodic probe's per-link ``(channel, times, delays)``
        #: rows over the arrays above, built at the run's first tick.
        self._probe_rows: (
            list[tuple["LinkChannel", list[float], list[float]]] | None
        ) = None
        self.deliveries: list[FlowDelivery] = []
        self.probe_count = 0

    # -- binding -----------------------------------------------------------

    def record_fabric(self, fabric) -> None:
        self.bind(fabric.engine, fabric.links)

    def bind(self, engine: "Engine", links: dict[int, "LinkChannel"]) -> None:
        """Attach to one run's engine and link channels.

        Rebinding (e.g. reusing a sampler for a second run) clears all
        previously recorded data — a sampler holds exactly one run.
        """
        self.engine = engine
        self._links = dict(links)
        self.labels = {lid: str(ch.spec) for lid, ch in links.items()}
        self.transfers = {}
        self._queue = {}
        self._probe_rows = None
        self.deliveries = []
        self.probe_count = 0
        if self.sample_interval is not None:
            engine.every(self.sample_interval, self._probe)

    def _probe(self) -> None:
        """Periodic engine hook: sample every link, store what changed.

        Scheduled through :meth:`Engine.every`, whose housekeeping
        accounting stops the chain once only periodic observers remain
        — a raw ``engine.pending`` check here would deadlock against
        any *other* periodic observer (e.g. the telemetry stream's link
        pump), each seeing the other as pending work.

        Each tick reads every link's queue delay but appends a sample
        only when it differs from the link's last recorded value (a
        link's first sample is always kept).  Both readers of the
        arrays — :meth:`queue_delay_at` and the bucketing of
        :meth:`timeline` — read a step function that holds its last
        value, so a repeat of that value changes no answer.  A change
        no queue event reports (a fault penalty, the wire draining)
        still lands at the first tick that sees it.
        """
        self.probe_count += 1
        rows = self._probe_rows
        if rows is None:
            rows = self._probe_rows = [
                (channel, *self._row(channel.spec.link_id))
                for channel in self._links.values()
            ]
        assert self.engine is not None
        now = self.engine.now
        for channel, times, delays in rows:
            delay = channel.queue_delay()
            if not delays or delay != delays[-1]:
                times.append(now)
                delays.append(delay)

    def _row(self, link_id: int) -> tuple[list[float], list[float]]:
        """The ``(times, delays)`` arrays of ``link_id``, made on demand."""
        row = self._queue.get(link_id)
        if row is None:
            row = self._queue[link_id] = ([], [])
        return row

    # -- recording (called from linksim / gpusim hot paths) ----------------

    def record_transfer(
        self,
        channel: "LinkChannel",
        submit: float,
        start: float,
        end: float,
        nbytes: int,
    ) -> None:
        link_id = channel.spec.link_id
        self.transfers.setdefault(link_id, []).append(
            TransferSample(submit, start, end, nbytes)
        )
        self.record_queue(channel)

    def record_queue(self, channel: "LinkChannel") -> None:
        link_id = channel.spec.link_id
        row = self._queue.get(link_id) or self._row(link_id)
        assert self.engine is not None
        row[0].append(self.engine.now)
        row[1].append(channel.queue_delay())

    def record_delivery(self, packet: "Packet", delivered_at: float) -> None:
        self.deliveries.append(
            FlowDelivery(
                flow_src=packet.flow_src,
                flow_dst=packet.flow_dst,
                route=str(packet.route),
                hops=packet.route.num_hops,
                payload_bytes=packet.payload_bytes,
                created_at=packet.created_at,
                delivered_at=delivered_at,
                ideal_latency=packet.ideal_latency,
            )
        )

    # -- queries -----------------------------------------------------------

    @property
    def horizon(self) -> float:
        """End of the last recorded transfer (0.0 for an empty run)."""
        return max(
            (samples[-1].end for samples in self.transfers.values() if samples),
            default=0.0,
        )

    def queue_delay_at(self, link_id: int, when: float) -> float:
        """The link's recorded queue delay strictly before ``when``.

        Strictness matters for decision replay: a routing decision and
        the commits it causes share one simulation timestamp, and the
        counterfactual must see the state *before* the batch landed.
        """
        row = self._queue.get(link_id)
        if row is None:
            return 0.0
        times, delays = row
        index = bisect.bisect_left(times, when) - 1
        if index < 0:
            return 0.0
        return delays[index]

    def busy_time(self, link_id: int, start: float, end: float) -> float:
        """Wire-busy seconds of ``link_id`` inside ``[start, end)``."""
        total = 0.0
        for sample in self.transfers.get(link_id, ()):
            total += max(0.0, min(sample.end, end) - max(sample.start, start))
        return total

    def bytes_in_window(self, link_id: int, start: float, end: float) -> float:
        """Bytes prorated by each transfer's overlap with the window."""
        total = 0.0
        for sample in self.transfers.get(link_id, ()):
            overlap = max(0.0, min(sample.end, end) - max(sample.start, start))
            if overlap > 0 and sample.service > 0:
                total += sample.nbytes * overlap / sample.service
        return total

    def queueing_time(self, link_id: int, start: float, end: float) -> float:
        """Summed FIFO waits of transfers submitted inside the window."""
        return sum(
            sample.wait
            for sample in self.transfers.get(link_id, ())
            if start <= sample.submit < end
        )

    # -- bucketing ---------------------------------------------------------

    def timeline(
        self, num_buckets: int = 60, horizon: float | None = None
    ) -> LinkTimeline:
        """Bucket all recorded activity into per-link time-series.

        Zero-duration runs (no transfers at all) yield a timeline with
        zero buckets rather than dividing by a zero horizon.
        """
        if num_buckets < 1:
            raise ValueError("num_buckets must be positive")
        span = self.horizon if horizon is None else horizon
        if span <= 0.0:
            return LinkTimeline(horizon=0.0, num_buckets=0)
        width = span / num_buckets
        timeline = LinkTimeline(horizon=span, num_buckets=num_buckets)
        link_ids = set(self.transfers) | set(self._queue)
        for link_id in sorted(link_ids):
            utilization = [0.0] * num_buckets
            nbytes = [0.0] * num_buckets
            for sample in self.transfers.get(link_id, ()):
                first = max(0, min(num_buckets - 1, int(sample.start / width)))
                last = max(0, min(num_buckets - 1, int(sample.end / width)))
                for bucket in range(first, last + 1):
                    lo, hi = bucket * width, (bucket + 1) * width
                    overlap = max(0.0, min(sample.end, hi) - max(sample.start, lo))
                    utilization[bucket] += overlap / width
                    if sample.service > 0:
                        nbytes[bucket] += sample.nbytes * overlap / sample.service
            queue = self._bucket_queue(link_id, width, num_buckets)
            timeline.series[link_id] = LinkSeries(
                link_id=link_id,
                label=self.labels.get(link_id, str(link_id)),
                utilization=[min(1.0, u) for u in utilization],
                queue_delay=queue,
                bytes=nbytes,
            )
        return timeline

    def _bucket_queue(
        self, link_id: int, width: float, num_buckets: int
    ) -> list[float]:
        """Per-bucket max of the queue-delay step function.

        A bucket's max covers the value carried in at its start (the
        last earlier sample, 0.0 before any) and every sample inside
        it, so a bucket without samples reads the carried value.
        """
        times, delays = self._queue.get(link_id, ((), ()))
        out = [0.0] * num_buckets
        bucket = 0
        carried = peak = 0.0
        for when, delay in zip(times, delays):
            index = max(0, min(num_buckets - 1, int(when / width)))
            while bucket < index:
                out[bucket] = peak
                bucket += 1
                peak = carried
            if delay > peak:
                peak = delay
            carried = delay
        out[bucket] = peak
        for rest in range(bucket + 1, num_buckets):
            out[rest] = carried
        return out
