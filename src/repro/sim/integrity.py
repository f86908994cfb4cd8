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
    from repro.obs import Observer
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
    observer: "Observer | None" = None

    # Wire-level tampering counters (fed by PacketTamperer).
    corrupted_wire: int = 0
    duplicated_wire: int = 0
    reordered_wire: int = 0
    # Verification counters (verify on).
    checksum_failures: int = 0
    retransmits: int = 0
    dup_dropped: int = 0
    reorders_absorbed: int = 0
    # Audit counters (verify off: what reached the application).
    corrupt_delivered: int = 0
    dup_delivered: int = 0
    dup_payload_bytes: int = 0

    _uid_counter: int = 0
    _delivered_uids: set[int] = field(default_factory=set)
    #: Highest sequence delivered per flow, for reorder absorption.
    _last_sequence: dict[tuple[int, int], int] = field(default_factory=dict)
    #: uids a reorder tamperer deliberately held back.
    _reordered_uids: set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def stamp(self, packet: "Packet") -> None:
        """Assign a run-unique uid and a pristine token + checksum."""
        self._uid_counter += 1
        packet.uid = self._uid_counter
        packet.payload_token = payload_token(
            packet.flow_src,
            packet.flow_dst,
            packet.sequence,
            packet.payload_bytes,
        )
        packet.checksum = payload_checksum(packet.payload_token)

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
        if packet.uid in self._delivered_uids:
            if self.verify:
                self.dup_dropped += 1
                self._count("dup_dropped")
                self._emit("dup-dropped", packet)
                return "dup"
            self.dup_delivered += 1
            self.dup_payload_bytes += packet.payload_bytes
            return "ok"
        stale = packet.checksum != payload_checksum(packet.payload_token)
        if stale and self.verify:
            self.checksum_failures += 1
            self._count("checksum_failures")
            self._emit("checksum-failure", packet)
            return "corrupt"
        self._delivered_uids.add(packet.uid)
        if stale:
            self.corrupt_delivered += 1
        flow = (packet.flow_src, packet.flow_dst)
        last = self._last_sequence.get(flow, -1)
        if packet.sequence > last:
            self._last_sequence[flow] = packet.sequence
        elif self.verify and packet.uid in self._reordered_uids:
            # Out-of-order *because a fault held the packet back*;
            # placement by (flow, sequence) absorbs it structurally.
            self.reorders_absorbed += 1
        return "ok"

    def record_retransmit(self, packet: "Packet") -> None:
        self.retransmits += 1
        self._count("retransmits")

    # ------------------------------------------------------------------
    # Fault side (fed by PacketTamperer)
    # ------------------------------------------------------------------

    def note_corrupted(self, packet: "Packet") -> None:
        self.corrupted_wire += 1

    def note_duplicated(self, packet: "Packet") -> None:
        self.duplicated_wire += 1

    def note_reordered(self, packet: "Packet") -> None:
        self.reordered_wire += 1
        self._reordered_uids.add(packet.uid)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def build_stats(self) -> IntegrityStats:
        return IntegrityStats(
            verified=self.verify,
            corrupted_wire=self.corrupted_wire,
            duplicated_wire=self.duplicated_wire,
            reordered_wire=self.reordered_wire,
            checksum_failures=self.checksum_failures,
            retransmits=self.retransmits,
            dup_dropped=self.dup_dropped,
            reorders_absorbed=self.reorders_absorbed,
            corrupt_delivered=self.corrupt_delivered,
            dup_delivered=self.dup_delivered,
            dup_payload_bytes=self.dup_payload_bytes,
        )

    def _count(self, name: str) -> None:
        if self.observer is not None:
            self.observer.metrics.counter(f"integrity.{name}").inc()

    def _emit(self, kind: str, packet: "Packet") -> None:
        if self.observer is not None and self.observer.stream is not None:
            self.observer.stream.emit(
                "integrity",
                t=self.engine.now,
                clock="sim",
                kind=kind,
                src=packet.flow_src,
                dst=packet.flow_dst,
                sequence=packet.sequence,
            )


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
            integrity.note_corrupted(packet)
        elif self.kind == "packet-dup":
            integrity.note_duplicated(packet)
            clone = replace(packet, held_buffer=None, pending_links={}, duplicate=True)
            # The copy lands at this hop's receiver slightly behind the
            # original and follows the normal receive/forward path.
            node.engine.schedule(self.dup_delay, receiver.on_arrival, clone)
        elif self.kind == "packet-reorder":
            integrity.note_reordered(packet)
            return self.reorder_delay * (1 + self.rng.randrange(4))
        return 0.0
