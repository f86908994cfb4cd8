"""Verified transport: per-packet checksums, dedup, and retransmit.

The shuffle moves *simulated* bytes, so payload content is modelled by
a deterministic ``payload_token`` — a crc32 over the packet's identity
— stamped onto every packet at injection together with a ``checksum``
over that token.  A corruption fault (:mod:`repro.faults`) flips bits
in the token while the packet is on the wire, leaving the checksum
stale, exactly like silent data corruption leaves a CRC mismatch.

Two operating modes, both owned by :class:`TransportIntegrity`:

* **verify on** (``ShuffleConfig.verify_transport``): the receiver
  checks the checksum on delivery.  A mismatch is NACKed back to the
  source, which retransmits a pristine copy through the existing
  bounded-backoff retry path (host fallback once the budget runs out),
  and duplicate deliveries are absorbed by a per-run uid window — so a
  corrupted run still produces the byte-identical healthy digest.
* **verify off**: nothing is checked in-line (zero hot-path changes),
  but the end-to-end audit still *detects* what slipped through —
  stale-checksum deliveries and duplicate deliveries are counted so
  the chaos harness can report silent corruption (exit code 3)
  instead of returning a wrong result without a trace.

Healthy runs without corruption faults never instantiate this class,
so the default path pays nothing and digests stay byte-identical.
"""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sim.gpusim import GpuNode, Packet

__all__ = [
    "IntegrityStats",
    "PacketTamperer",
    "TransportIntegrity",
    "payload_checksum",
    "payload_token",
]


def payload_token(
    flow_src: int, flow_dst: int, sequence: int, payload_bytes: int
) -> int:
    """Deterministic stand-in for the packet's payload content."""
    return zlib.crc32(
        struct.pack("<qqqq", flow_src, flow_dst, sequence, payload_bytes)
    )


def payload_checksum(token: int) -> int:
    """The crc32 a sender stamps into the envelope at send time."""
    return zlib.crc32(struct.pack("<I", token & 0xFFFFFFFF))


@dataclass
class IntegrityStats:
    """Verified-transport accounting for one shuffle run.

    Present on :class:`~repro.sim.stats.ShuffleReport` whenever the
    integrity layer was active (verification requested, or a corruption
    fault in the plan); ``None`` otherwise.
    """

    #: Was receiver-side verification on (checksums checked, dups
    #: dropped, corrupt packets retransmitted)?
    verified: bool
    #: Wire-level tampering that actually happened (fault-side view).
    corrupted_wire: int = 0
    duplicated_wire: int = 0
    reordered_wire: int = 0
    #: Verification outcomes (verify on).
    checksum_failures: int = 0
    retransmits: int = 0
    dup_dropped: int = 0
    reorders_absorbed: int = 0
    #: What slipped through to the application (verify off).
    corrupt_delivered: int = 0
    dup_delivered: int = 0
    dup_payload_bytes: int = 0

    @property
    def silent_corruption(self) -> bool:
        """Did un-verified transport deliver corrupt or duplicate data?"""
        return self.corrupt_delivered > 0 or self.dup_delivered > 0

    @property
    def unchecked_corruption(self) -> bool:
        """Did corrupt or duplicate data reach the join unchecked?

        Only possible with verification *off*: the end-to-end audit
        found deliveries whose payload checksum was stale or whose uid
        was already seen.  With verification on, those packets were
        repaired in flight.  ``repro chaos`` and ``repro serve`` exit 3
        on it.
        """
        return not self.verified and self.silent_corruption

    def to_dict(self) -> dict:
        return {
            "verified": self.verified,
            "corrupted_wire": self.corrupted_wire,
            "duplicated_wire": self.duplicated_wire,
            "reordered_wire": self.reordered_wire,
            "checksum_failures": self.checksum_failures,
            "retransmits": self.retransmits,
            "dup_dropped": self.dup_dropped,
            "reorders_absorbed": self.reorders_absorbed,
            "corrupt_delivered": self.corrupt_delivered,
            "dup_delivered": self.dup_delivered,
            "dup_payload_bytes": self.dup_payload_bytes,
            "silent_corruption": self.silent_corruption,
        }


@dataclass
class TransportIntegrity:
    """Shared checksum/dedup state for one shuffle run."""

    engine: "Engine"
    verify: bool
    #: The fabric's activity recorders, told of every dropped duplicate
    #: and every checksum failure.
    recorders: tuple = ()
    #: The run's counters, copied onto the report by :meth:`build_stats`.
    stats: IntegrityStats = field(init=False)

    _uid_counter: int = 0
    _delivered_uids: set[int] = field(default_factory=set)
    #: Highest sequence delivered per flow, for reorder absorption.
    _last_sequence: dict[tuple[int, int], int] = field(default_factory=dict)
    #: uids a reorder tamperer deliberately held back.
    _reordered_uids: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.stats = IntegrityStats(verified=self.verify)

    @property
    def dup_payload_bytes(self) -> int:
        return self.stats.dup_payload_bytes

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def stamp(self, packet: "Packet") -> None:
        """Assign a run-unique uid and a pristine token + checksum."""
        self._uid_counter += 1
        packet.uid = self._uid_counter
        self.restamp(packet)

    def restamp(self, packet: "Packet") -> None:
        """Restore pristine payload/checksum for a retransmission.

        The source re-reads the data from its own memory, so whatever
        the wire did to the previous copy is gone.  The uid is kept:
        the retransmission is the same logical packet.
        """
        packet.payload_token = payload_token(
            packet.flow_src,
            packet.flow_dst,
            packet.sequence,
            packet.payload_bytes,
        )
        packet.checksum = payload_checksum(packet.payload_token)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def on_deliver(self, node: "GpuNode", packet: "Packet") -> str:
        """Grade one delivery: ``"ok"``, ``"dup"`` or ``"corrupt"``.

        ``"dup"`` and ``"corrupt"`` are only returned with verification
        on — the caller drops or NACKs the packet.  With verification
        off everything is accepted (``"ok"``) and the damage is counted
        for the end-to-end audit.
        """
        stats = self.stats
        if packet.uid in self._delivered_uids:
            if self.verify:
                stats.dup_dropped += 1
                now = self.engine.now
                for recorder in self.recorders:
                    recorder.record_integrity("dup-dropped", packet, now)
                return "dup"
            stats.dup_delivered += 1
            stats.dup_payload_bytes += packet.payload_bytes
            return "ok"
        stale = packet.checksum != payload_checksum(packet.payload_token)
        if stale and self.verify:
            stats.checksum_failures += 1
            now = self.engine.now
            for recorder in self.recorders:
                recorder.record_integrity("checksum-failure", packet, now)
            return "corrupt"
        self._delivered_uids.add(packet.uid)
        if stale:
            stats.corrupt_delivered += 1
        flow = (packet.flow_src, packet.flow_dst)
        last = self._last_sequence.get(flow, -1)
        if packet.sequence > last:
            self._last_sequence[flow] = packet.sequence
        elif self.verify and packet.uid in self._reordered_uids:
            # Out-of-order *because a fault held the packet back*;
            # placement by (flow, sequence) absorbs it structurally.
            stats.reorders_absorbed += 1
        return "ok"

    # ------------------------------------------------------------------
    # Fault side (fed by PacketTamperer)
    # ------------------------------------------------------------------

    def note_reordered(self, packet: "Packet") -> None:
        self.stats.reordered_wire += 1
        self._reordered_uids.add(packet.uid)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def build_stats(self) -> IntegrityStats:
        return replace(self.stats)


@dataclass
class PacketTamperer:
    """One corruption fault's effect on packets crossing a link.

    Installed on both directed :class:`~repro.sim.linksim.LinkChannel`
    objects of the faulted NVLink for the event's duration.  ``apply``
    is called by the sending GPU after each successful transmission and
    reports to that GPU's integrity layer; the rng is seeded from the
    fault event + plan seed, so the same plan tampers with the same
    packets run after run.
    """

    kind: str
    magnitude: float
    rng: random.Random
    #: Arrival delay of a duplicate copy / a held-back packet, seconds.
    dup_delay: float = 20e-6
    reorder_delay: float = 200e-6

    def apply(
        self, node: "GpuNode", packet: "Packet", receiver: "GpuNode"
    ) -> float:
        """Maybe tamper with ``packet``; returns extra arrival delay."""
        if self.rng.random() >= self.magnitude:
            return 0.0
        integrity = node.integrity
        if self.kind == "payload-corrupt":
            packet.payload_token ^= 1 << self.rng.randrange(32)
            integrity.stats.corrupted_wire += 1
        elif self.kind == "packet-dup":
            integrity.stats.duplicated_wire += 1
            clone = replace(packet, held_buffer=None, pending_links={}, duplicate=True)
            # The copy lands at this hop's receiver slightly behind the
            # original and follows the normal receive/forward path.
            node.engine.schedule(self.dup_delay, receiver.on_arrival, clone)
        elif self.kind == "packet-reorder":
            integrity.note_reordered(packet)
            return self.reorder_delay * (1 + self.rng.randrange(4))
        return 0.0
