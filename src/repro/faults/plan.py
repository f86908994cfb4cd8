"""Declarative fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is a named, seeded list of :class:`FaultEvent`
entries scheduled on the simulation clock.  Plans are data — they can
be written in YAML/JSON, round-tripped through :meth:`FaultPlan.to_dict`
and built deterministically from a seed by :func:`build_preset`, so a
chaos scenario is exactly reproducible run-to-run.

Link faults target a GPU↔GPU NVLink *pair*: a physical NVLink failing
takes out both directed links.  GPU faults target one GPU.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.machine import MachineTopology

try:  # pragma: no cover - exercised implicitly by YAML plan tests
    import yaml as _yaml
except ImportError:  # pragma: no cover - the image bakes pyyaml in
    _yaml = None


class FaultPlanError(ValueError):
    """A fault plan is malformed (unknown kind, missing target, ...)."""


class FaultKind(str, Enum):
    """The five fault models of the robustness subsystem."""

    #: NVLink drops to a fraction of its rated bandwidth (e.g.
    #: PCIe-class rates); ``magnitude`` is the bandwidth scale in (0, 1).
    LINK_DEGRADE = "link-degrade"
    #: Transient blackout: the link is down for ``duration`` seconds,
    #: in-flight transfers are lost, then it comes back.
    LINK_BLACKOUT = "link-blackout"
    #: Permanent link failure: down forever, routes are invalidated.
    LINK_FAIL = "link-fail"
    #: GPU compute slowdown; ``magnitude`` > 1 is the slowdown factor.
    GPU_STRAGGLER = "gpu-straggler"
    #: GPU crash: every link touching the GPU fails permanently and,
    #: with join-level recovery armed, its compute state is lost too.
    GPU_CRASH = "gpu-crash"
    #: Silent payload corruption: packets crossing the link have their
    #: payload bit-flipped in flight (seeded); ``magnitude`` in (0, 1]
    #: is the fraction of packets affected.
    PAYLOAD_CORRUPT = "payload-corrupt"
    #: Packet duplication: the link delivers some packets twice;
    #: ``magnitude`` in (0, 1] is the fraction of packets duplicated.
    PACKET_DUP = "packet-dup"
    #: Packet reordering: some packets are held back and arrive late,
    #: out of sequence order; ``magnitude`` in (0, 1] is the fraction
    #: of packets delayed.
    PACKET_REORDER = "packet-reorder"


#: Transport-corruption kinds: link-targeted, duration-windowed, with
#: ``magnitude`` as the per-packet affect rate in (0, 1].
CORRUPTION_KINDS = frozenset(
    {FaultKind.PAYLOAD_CORRUPT, FaultKind.PACKET_DUP, FaultKind.PACKET_REORDER}
)
LINK_KINDS = (
    frozenset({FaultKind.LINK_DEGRADE, FaultKind.LINK_BLACKOUT, FaultKind.LINK_FAIL})
    | CORRUPTION_KINDS
)
GPU_KINDS = frozenset({FaultKind.GPU_STRAGGLER, FaultKind.GPU_CRASH})
#: Kinds that must not carry a duration (they never heal).
PERMANENT_KINDS = frozenset({FaultKind.LINK_FAIL, FaultKind.GPU_CRASH})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``src``/``dst`` name the GPU pair of a link fault; ``gpu`` the
    target of a GPU fault.  ``duration=None`` means permanent.
    """

    kind: FaultKind
    at: float
    src: int | None = None
    dst: int | None = None
    gpu: int | None = None
    duration: float | None = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.at}")
        if self.kind in LINK_KINDS:
            if self.src is None or self.dst is None or self.src == self.dst:
                raise FaultPlanError(
                    f"{self.kind.value} needs distinct src/dst GPUs, got "
                    f"src={self.src} dst={self.dst}"
                )
        if self.kind in GPU_KINDS and self.gpu is None:
            raise FaultPlanError(f"{self.kind.value} needs a target gpu")
        if self.kind in PERMANENT_KINDS:
            if self.duration is not None:
                raise FaultPlanError(
                    f"{self.kind.value} is permanent; duration not allowed"
                )
        elif self.duration is None or self.duration <= 0:
            raise FaultPlanError(
                f"{self.kind.value} needs a positive duration, got "
                f"{self.duration}"
            )
        if self.kind is FaultKind.LINK_DEGRADE and not 0 < self.magnitude < 1:
            raise FaultPlanError(
                "link-degrade magnitude is the bandwidth scale and must be "
                f"in (0, 1), got {self.magnitude}"
            )
        if self.kind is FaultKind.GPU_STRAGGLER and self.magnitude <= 1:
            raise FaultPlanError(
                "gpu-straggler magnitude is the slowdown factor and must "
                f"be > 1, got {self.magnitude}"
            )
        if self.kind in CORRUPTION_KINDS and not 0 < self.magnitude <= 1:
            raise FaultPlanError(
                f"{self.kind.value} magnitude is the fraction of packets "
                f"affected and must be in (0, 1], got {self.magnitude}"
            )

    def to_dict(self) -> dict:
        entry: dict = {"kind": self.kind.value, "at": self.at}
        for key in ("src", "dst", "gpu", "duration"):
            value = getattr(self, key)
            if value is not None:
                entry[key] = value
        if (
            self.kind in (FaultKind.LINK_DEGRADE, FaultKind.GPU_STRAGGLER)
            or self.kind in CORRUPTION_KINDS
        ):
            entry["magnitude"] = self.magnitude
        return entry

    def attrs(self) -> dict:
        """The fault's target and magnitude, as trace and stream fields."""
        attrs: dict = {"kind": self.kind.value}
        if self.gpu is not None:
            attrs["gpu"] = self.gpu
        if self.src is not None:
            attrs["src"] = self.src
            attrs["dst"] = self.dst
        if (
            self.kind in (FaultKind.LINK_DEGRADE, FaultKind.GPU_STRAGGLER)
            or self.kind in CORRUPTION_KINDS
        ):
            attrs["magnitude"] = self.magnitude
        return attrs

    @staticmethod
    def from_dict(entry: dict) -> "FaultEvent":
        if not isinstance(entry, dict):
            raise FaultPlanError(f"fault entry must be a mapping, got {entry!r}")
        data = dict(entry)
        try:
            kind = FaultKind(data.pop("kind"))
        except (KeyError, ValueError) as exc:
            known = ", ".join(k.value for k in FaultKind)
            raise FaultPlanError(
                f"fault entry {entry!r} needs a 'kind' among: {known}"
            ) from exc
        try:
            at = float(data.pop("at"))
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(
                f"fault entry {entry!r} needs a numeric 'at' time"
            ) from exc
        allowed = {"src", "dst", "gpu", "duration", "magnitude"}
        unknown = set(data) - allowed
        if unknown:
            raise FaultPlanError(
                f"unknown fault fields {sorted(unknown)} in {entry!r}"
            )
        kwargs: dict = {}
        for key in ("src", "dst", "gpu"):
            if key in data:
                kwargs[key] = int(data[key])
        if "duration" in data and data["duration"] is not None:
            kwargs["duration"] = float(data["duration"])
        if "magnitude" in data:
            kwargs["magnitude"] = float(data["magnitude"])
        return FaultEvent(kind=kind, at=at, **kwargs)


#: Retry-policy knobs a plan may bake in (field names of
#: :class:`~repro.sim.recovery.RetryPolicy`).  Everything but
#: ``max_attempts`` is a float.
RETRY_FIELDS = (
    "max_attempts",
    "base_delay",
    "backoff",
    "max_delay",
    "acquire_timeout",
    "host_bandwidth",
    "host_latency",
    "jitter",
)


def _normalize_retry(retry) -> tuple[tuple[str, float], ...]:
    """Coerce a retry override mapping into a hashable sorted tuple."""
    items = dict(retry)
    unknown = set(items) - set(RETRY_FIELDS)
    if unknown:
        known = ", ".join(RETRY_FIELDS)
        raise FaultPlanError(
            f"unknown retry fields {sorted(unknown)}; choose among: {known}"
        )
    normalized = []
    for key in sorted(items):
        try:
            value = int(items[key]) if key == "max_attempts" else float(items[key])
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(
                f"retry field {key!r} must be numeric, got {items[key]!r}"
            ) from exc
        normalized.append((key, value))
    return tuple(normalized)


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered schedule of faults.

    ``retry`` optionally bakes retry-policy overrides into the plan
    (see :data:`RETRY_FIELDS`), so a chaos scenario file fully
    describes the run; CLI flags take precedence over plan values.
    """

    name: str
    events: tuple[FaultEvent, ...]
    seed: int = 0
    retry: "tuple[tuple[str, float], ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.at))
        )
        if self.retry is not None:
            object.__setattr__(self, "retry", _normalize_retry(self.retry))

    def __len__(self) -> int:
        return len(self.events)

    @property
    def retry_kwargs(self) -> dict:
        """The retry overrides as keyword arguments (empty if unset)."""
        return dict(self.retry) if self.retry is not None else {}

    def validate(
        self,
        machine: "MachineTopology",
        gpu_ids: "tuple[int, ...] | None" = None,
        *,
        queries: "dict[str, tuple[int, ...]] | None" = None,
    ) -> "FaultPlan":
        """Check every event against the actual machine at load time.

        A plan naming a GPU or link that does not exist on the selected
        machine (or outside the ``gpu_ids`` cut) raises
        :class:`FaultPlanError` naming the offending target here, not a
        ``KeyError`` in the middle of a simulated run.  Returns the
        plan, so loaders can chain ``FaultPlan.from_file(p).validate(m)``.

        ``queries`` is the serving context: a mapping of admitted query
        id to the GPU set that query runs on.  When given, participants
        default to the union of every query's GPUs, and each event must
        be *reachable* by at least one admitted query — a GPU fault
        must hit a GPU some query runs on, and a link fault needs one
        query whose GPU set contains both endpoints (otherwise no
        tenant's traffic can ever cross that link).  Violations name
        the offending event and the admitted queries, so a bad serve
        chaos plan fails before any query is admitted.  Every fault
        kind is accepted in serving context: a corruption fault on a
        shared link reports each tampered packet to the query that
        sent it.
        """
        if queries is not None and gpu_ids is None:
            union: set[int] = set()
            for query_gpus in queries.values():
                union.update(query_gpus)
            gpu_ids = tuple(sorted(union))
        participants = tuple(sorted(gpu_ids)) if gpu_ids else machine.gpu_ids
        unknown = set(participants) - set(machine.gpu_ids)
        if unknown:
            raise FaultPlanError(
                f"plan {self.name!r}: GPUs {sorted(unknown)} are not on "
                f"this machine (has {list(machine.gpu_ids)})"
            )
        member = set(participants)
        for event in self.events:
            if event.kind in GPU_KINDS:
                if event.gpu not in member:
                    raise FaultPlanError(
                        f"plan {self.name!r}: {event.kind.value} at "
                        f"t={event.at} targets gpu{event.gpu}, which is not "
                        f"among the participating GPUs {list(participants)}"
                    )
            else:
                bad = [g for g in (event.src, event.dst) if g not in member]
                if bad:
                    raise FaultPlanError(
                        f"plan {self.name!r}: {event.kind.value} at "
                        f"t={event.at} targets "
                        f"gpu{event.src}<->gpu{event.dst}, but "
                        f"{', '.join(f'gpu{g}' for g in bad)} is not among "
                        f"the participating GPUs {list(participants)}"
                    )
                if (
                    machine.nvlink_between(event.src, event.dst) is None
                    and machine.nvlink_between(event.dst, event.src) is None
                ):
                    raise FaultPlanError(
                        f"plan {self.name!r}: {event.kind.value} at "
                        f"t={event.at} targets "
                        f"gpu{event.src}<->gpu{event.dst}, but no NVLink "
                        f"connects them on this machine"
                    )
        if queries is not None:
            self._validate_serve_reach(queries)
        self._validate_permanent_conflicts()
        return self

    def _validate_serve_reach(
        self, queries: "dict[str, tuple[int, ...]]"
    ) -> None:
        """Reject events no admitted query can reach."""
        admitted = {
            name: frozenset(query_gpus)
            for name, query_gpus in queries.items()
        }
        roster = ", ".join(
            f"{name}={sorted(gpus)}" for name, gpus in sorted(admitted.items())
        ) or "(none)"
        for event in self.events:
            if event.kind in GPU_KINDS:
                if not any(event.gpu in gpus for gpus in admitted.values()):
                    raise FaultPlanError(
                        f"plan {self.name!r}: {event.kind.value} at "
                        f"t={event.at} targets gpu{event.gpu}, which no "
                        f"admitted query runs on (admitted: {roster})"
                    )
            else:
                pair = {event.src, event.dst}
                if not any(pair <= gpus for gpus in admitted.values()):
                    raise FaultPlanError(
                        f"plan {self.name!r}: {event.kind.value} at "
                        f"t={event.at} targets "
                        f"gpu{event.src}<->gpu{event.dst}, a link no "
                        f"admitted query's traffic can cross (admitted: "
                        f"{roster})"
                    )

    def _validate_permanent_conflicts(self) -> None:
        """Reject events targeting something a permanent fault removed.

        A ``link-fail`` kills its link forever and a ``gpu-crash``
        kills every link touching the GPU: any later event aimed at
        that target is at best a no-op and at worst a runtime
        ``KeyError``.  Walk the (time-sorted) schedule and name *both*
        events in the error so the conflict is diagnosable from the
        plan file alone.
        """

        def describe(event: FaultEvent) -> str:
            if event.kind in GPU_KINDS:
                target = f"gpu{event.gpu}"
            else:
                target = f"gpu{event.src}<->gpu{event.dst}"
            return f"{event.kind.value} at t={event.at} on {target}"

        crashed: dict[int, FaultEvent] = {}
        failed_pairs: dict[frozenset, FaultEvent] = {}
        for event in self.events:
            if event.kind in GPU_KINDS:
                earlier = crashed.get(event.gpu)
                if earlier is not None:
                    raise FaultPlanError(
                        f"plan {self.name!r}: {describe(event)} targets a "
                        f"GPU already removed by {describe(earlier)}"
                    )
                if event.kind is FaultKind.GPU_CRASH:
                    crashed[event.gpu] = event
            else:
                pair = frozenset((event.src, event.dst))
                earlier = failed_pairs.get(pair)
                if earlier is None:
                    for endpoint in (event.src, event.dst):
                        if endpoint in crashed:
                            earlier = crashed[endpoint]
                            break
                if earlier is not None:
                    raise FaultPlanError(
                        f"plan {self.name!r}: {describe(event)} targets a "
                        f"link already removed by {describe(earlier)}"
                    )
                if event.kind is FaultKind.LINK_FAIL:
                    failed_pairs[pair] = event

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }
        if self.retry is not None:
            data["retry"] = dict(self.retry)
        return data

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be a mapping, got {data!r}")
        events = data.get("events")
        if not isinstance(events, list) or not events:
            raise FaultPlanError("fault plan needs a non-empty 'events' list")
        retry = data.get("retry")
        if retry is not None and not isinstance(retry, dict):
            raise FaultPlanError(
                f"fault plan 'retry' must be a mapping, got {retry!r}"
            )
        return FaultPlan(
            name=str(data.get("name", "unnamed")),
            seed=int(data.get("seed", 0)),
            events=tuple(FaultEvent.from_dict(entry) for entry in events),
            retry=tuple(sorted(retry.items())) if retry else None,
        )

    @staticmethod
    def from_file(path: str | Path) -> "FaultPlan":
        """Load a plan from a YAML or JSON file (by extension)."""
        path = Path(path)
        text = path.read_text()
        if path.suffix in (".yaml", ".yml"):
            if _yaml is None:
                raise FaultPlanError(
                    "pyyaml is not installed; use a JSON fault plan instead"
                )
            data = _yaml.safe_load(text)
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise FaultPlanError(f"{path} is not valid JSON: {exc}") from exc
        return FaultPlan.from_dict(data)


#: Built-in chaos scenarios (see :func:`build_preset`).
PRESET_NAMES = (
    "nvlink-brownout",
    "gpu-straggler",
    "link-flap",
    "link-blackout",
    "nvlink-cut",
    "gpu-crash",
    "gpu-crash-x2",
    "payload-corrupt",
    "packet-dup",
    "packet-reorder",
)


def _nvlink_pairs(
    machine: "MachineTopology",
    gpu_ids: "tuple[int, ...] | None" = None,
) -> list[tuple[int, int]]:
    pairs = sorted(
        {
            (min(g, n), max(g, n))
            for g in machine.gpu_ids
            for n in machine.nvlink_neighbors(g)
        }
    )
    if gpu_ids is not None:
        participants = set(gpu_ids)
        scoped = [
            pair
            for pair in pairs
            if pair[0] in participants and pair[1] in participants
        ]
        # A subset with no internal NVLink (e.g. a staged pair) falls
        # back to machine-wide links so the preset still means something.
        pairs = scoped or pairs
    if not pairs:
        raise FaultPlanError(
            "machine has no GPU-GPU NVLinks; link presets need at least one"
        )
    return pairs


def build_preset(
    name: str,
    machine: "MachineTopology",
    horizon: float,
    seed: int = 0,
    gpu_ids: "tuple[int, ...] | None" = None,
) -> FaultPlan:
    """Materialize a built-in chaos scenario for one machine and run.

    ``horizon`` is the expected healthy-run duration in seconds: preset
    fault times are fractions of it, so the same scenario stresses a
    10 ms toy shuffle and a 10 s production-sized one alike.  With
    ``gpu_ids`` the targets are drawn from the participating GPUs only.
    The same ``(name, machine, horizon, seed, gpu_ids)`` always yields
    the same plan — the seed mix uses crc32, not ``hash()``, so plans
    reproduce across interpreter runs regardless of PYTHONHASHSEED.
    """
    if horizon <= 0:
        raise FaultPlanError(f"horizon must be positive, got {horizon}")
    targets = tuple(sorted(gpu_ids)) if gpu_ids else machine.gpu_ids
    unknown = set(targets) - set(machine.gpu_ids)
    if unknown:
        raise FaultPlanError(f"unknown GPUs for preset: {sorted(unknown)}")
    rng = random.Random(zlib.crc32(name.encode("utf-8")) ^ seed)
    events: list[FaultEvent] = []
    if name == "nvlink-brownout":
        # A third of the NVLinks sag to PCIe-class bandwidth for most
        # of the run — the regime where ARM must re-route around them.
        pairs = _nvlink_pairs(machine, targets)
        count = max(1, len(pairs) // 3)
        for src, dst in rng.sample(pairs, count):
            events.append(
                FaultEvent(
                    kind=FaultKind.LINK_DEGRADE,
                    at=0.05 * horizon,
                    src=src,
                    dst=dst,
                    duration=0.85 * horizon,
                    magnitude=0.12,
                )
            )
    elif name == "gpu-straggler":
        gpu = rng.choice(targets)
        events.append(
            FaultEvent(
                kind=FaultKind.GPU_STRAGGLER,
                at=0.1 * horizon,
                gpu=gpu,
                duration=0.7 * horizon,
                magnitude=4.0,
            )
        )
    elif name == "link-flap":
        src, dst = rng.choice(_nvlink_pairs(machine, targets))
        at = 0.05 * horizon
        for _ in range(4):
            blackout = rng.uniform(0.03, 0.08) * horizon
            events.append(
                FaultEvent(
                    kind=FaultKind.LINK_BLACKOUT,
                    at=at,
                    src=src,
                    dst=dst,
                    duration=blackout,
                )
            )
            at += blackout + rng.uniform(0.08, 0.15) * horizon
    elif name == "link-blackout":
        # One sustained outage on a single NVLink: down for ~30% of the
        # run, then restored.  The canonical telemetry-smoke scenario —
        # one clean link.down/link.up pair and one critical alert.
        src, dst = rng.choice(_nvlink_pairs(machine, targets))
        events.append(
            FaultEvent(
                kind=FaultKind.LINK_BLACKOUT,
                at=0.2 * horizon,
                src=src,
                dst=dst,
                duration=0.3 * horizon,
            )
        )
    elif name == "nvlink-cut":
        src, dst = rng.choice(_nvlink_pairs(machine, targets))
        events.append(
            FaultEvent(
                kind=FaultKind.LINK_FAIL, at=0.25 * horizon, src=src, dst=dst
            )
        )
    elif name == "gpu-crash":
        gpu = rng.choice(targets)
        events.append(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.4 * horizon, gpu=gpu)
        )
    elif name == "gpu-crash-x2":
        # Two GPUs die within one heartbeat epoch of each other: the
        # second crash lands while the first recovery is in flight, so
        # reassignment must survive targeting a soon-to-be-dead GPU.
        if len(targets) < 3:
            raise FaultPlanError(
                "gpu-crash-x2 needs at least three participating GPUs "
                "(two crash, at least one must survive)"
            )
        first, second = rng.sample(list(targets), 2)
        events.append(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.35 * horizon, gpu=first)
        )
        events.append(
            FaultEvent(kind=FaultKind.GPU_CRASH, at=0.4 * horizon, gpu=second)
        )
    elif name == "payload-corrupt":
        # One NVLink silently flips payload bits on a third of its
        # packets for most of the run — the fault digest equality
        # exists to catch.
        src, dst = rng.choice(_nvlink_pairs(machine, targets))
        events.append(
            FaultEvent(
                kind=FaultKind.PAYLOAD_CORRUPT,
                at=0.1 * horizon,
                src=src,
                dst=dst,
                duration=0.7 * horizon,
                magnitude=0.35,
            )
        )
    elif name == "packet-dup":
        # One NVLink delivers a quarter of its packets twice.
        src, dst = rng.choice(_nvlink_pairs(machine, targets))
        events.append(
            FaultEvent(
                kind=FaultKind.PACKET_DUP,
                at=0.1 * horizon,
                src=src,
                dst=dst,
                duration=0.6 * horizon,
                magnitude=0.25,
            )
        )
    elif name == "packet-reorder":
        # One NVLink holds back a quarter of its packets so they land
        # late and out of sequence order.
        src, dst = rng.choice(_nvlink_pairs(machine, targets))
        events.append(
            FaultEvent(
                kind=FaultKind.PACKET_REORDER,
                at=0.1 * horizon,
                src=src,
                dst=dst,
                duration=0.6 * horizon,
                magnitude=0.25,
            )
        )
    else:
        known = ", ".join(PRESET_NAMES)
        raise FaultPlanError(f"unknown preset {name!r}; choose one of: {known}")
    return FaultPlan(name=name, seed=seed, events=tuple(events))
