"""Request/response structures of the serving layer.

A :class:`QueryRequest` describes one join a tenant wants executed on
the shared machine: when it arrives, how many GPUs it needs (or which
exact ones), its workload shape, an optional completion deadline and a
bandwidth-arbitration priority.  The scheduler answers each request
with exactly one of

* a :class:`QueryOutcome` with ``status="completed"`` (plus digest,
  matches, latency and the usual join accounting),
* a structured :class:`QueryRejected` shed-load response (admission
  control refused the query; nothing ran, nothing hangs), or
* a failure outcome (``deadline-expired`` / ``retry-budget-exhausted``)
  when the query was admitted but could not finish.

Requests can be loaded from a JSON file (``repro serve requests.json``)
or generated deterministically (``repro serve --synthetic N``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mgjoin import JoinResult
    from repro.sim.integrity import IntegrityStats

__all__ = [
    "QueryRequest",
    "QueryRejected",
    "QueryOutcome",
    "REJECT_REASONS",
    "TERMINAL_STATUSES",
    "load_requests",
    "synthetic_requests",
]

#: Structured shed-load reasons admission control may answer with.
REJECT_REASONS = (
    "no-capacity",      # max_in_flight == 0: the scheduler serves nothing
    "queue-full",       # in-flight cap reached and the wait queue is full
    "gpu-unavailable",  # a requested GPU already crashed on this fabric
)

#: Every way a request's story can end.
TERMINAL_STATUSES = (
    "completed",
    "rejected",
    "deadline-expired",
    "retry-budget-exhausted",
)


@dataclass(frozen=True)
class QueryRequest:
    """One tenant's join request against the shared machine."""

    name: str
    #: Simulated-clock arrival time (seconds).
    arrival: float = 0.0
    #: Number of GPUs to place the join on (lowest free ids are used)
    #: when ``gpu_ids`` is not given explicitly.
    gpus: int = 2
    #: Explicit placement; overrides ``gpus`` when set.
    gpu_ids: tuple[int, ...] | None = None
    #: Real (materialized) tuples per GPU and the logical scale they
    #: stand for — same semantics as ``repro join --tuples/--real``.
    tuples: int = 2048
    logical_tuples: int | None = None
    #: Bandwidth-arbitration priority (higher wins under ``priority``
    #: arbitration; ignored under ``fair``).
    priority: int = 0
    #: Completion deadline in simulated seconds measured from arrival;
    #: ``None`` = no deadline.
    deadline: float | None = None
    #: Workload RNG seed (keys + placement).
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("query request needs a non-empty name")
        if self.arrival < 0:
            raise ValueError(f"query {self.name!r}: arrival must be >= 0")
        if self.gpu_ids is not None:
            object.__setattr__(self, "gpu_ids", tuple(sorted(self.gpu_ids)))
            if len(set(self.gpu_ids)) != len(self.gpu_ids):
                raise ValueError(f"query {self.name!r}: duplicate gpu_ids")
            if not self.gpu_ids:
                raise ValueError(f"query {self.name!r}: empty gpu_ids")
        elif self.gpus < 1:
            raise ValueError(f"query {self.name!r}: gpus must be >= 1")
        if self.tuples < 1:
            raise ValueError(f"query {self.name!r}: tuples must be >= 1")
        if self.logical_tuples is not None and (
            self.logical_tuples < self.tuples
            or self.logical_tuples % self.tuples != 0
        ):
            raise ValueError(
                f"query {self.name!r}: logical_tuples must be a positive "
                f"multiple of tuples"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"query {self.name!r}: deadline must be > 0")

    @property
    def num_gpus(self) -> int:
        return len(self.gpu_ids) if self.gpu_ids is not None else self.gpus

    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "arrival": self.arrival,
            "tuples": self.tuples,
            "seed": self.seed,
        }
        if self.gpu_ids is not None:
            payload["gpu_ids"] = list(self.gpu_ids)
        else:
            payload["gpus"] = self.gpus
        if self.logical_tuples is not None:
            payload["logical_tuples"] = self.logical_tuples
        if self.priority:
            payload["priority"] = self.priority
        if self.deadline is not None:
            payload["deadline"] = self.deadline
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryRequest":
        gpu_ids = payload.get("gpu_ids")
        return cls(
            name=payload["name"],
            arrival=float(payload.get("arrival", 0.0)),
            gpus=int(payload.get("gpus", 2)),
            gpu_ids=tuple(gpu_ids) if gpu_ids is not None else None,
            tuples=int(payload.get("tuples", 2048)),
            logical_tuples=(
                int(payload["logical_tuples"])
                if payload.get("logical_tuples") is not None
                else None
            ),
            priority=int(payload.get("priority", 0)),
            deadline=(
                float(payload["deadline"])
                if payload.get("deadline") is not None
                else None
            ),
            seed=int(payload.get("seed", 42)),
        )


@dataclass(frozen=True)
class QueryRejected:
    """Structured shed-load response: the query never ran.

    Admission control answers immediately — an overloaded scheduler
    sheds queries with one of these instead of queueing forever.
    """

    name: str
    reason: str
    at: float
    in_flight: int
    queued: int
    message: str = ""

    def __post_init__(self) -> None:
        if self.reason not in REJECT_REASONS:
            raise ValueError(
                f"unknown rejection reason {self.reason!r}; "
                f"choose from {REJECT_REASONS}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "reason": self.reason,
            "at": self.at,
            "in_flight": self.in_flight,
            "queued": self.queued,
            "message": self.message,
        }


@dataclass
class QueryOutcome:
    """Everything the scheduler can report about one request."""

    name: str
    status: str
    gpu_ids: tuple[int, ...] = ()
    priority: int = 0
    arrival: float = 0.0
    #: Simulated instant admission happened; ``None`` = never admitted.
    admitted_at: float | None = None
    #: Simulated instant the query reached its terminal status.
    finished_at: float | None = None
    #: Time spent waiting for an admission slot.
    queue_wait: float = 0.0
    #: End-to-end latency (arrival -> terminal), simulated seconds.
    latency: float | None = None
    #: Modelled join runtime at logical scale (PhaseBreakdown total).
    join_time: float | None = None
    matches: int | None = None
    match_digest: str | None = None
    retries: int = 0
    fallbacks: int = 0
    crashed_gpus: tuple[int, ...] = ()
    rejection: QueryRejected | None = None
    #: Integrity-layer stats of a completed query's shuffle; ``None``
    #: when the layer was off (no verification, no corruption fault).
    integrity: "IntegrityStats | None" = None
    #: Human-oriented detail for failure statuses.
    detail: str = ""
    #: The finished join of a completed query (graded by the chaos
    #: harness); set by the scheduler, not serialized.
    result: "JoinResult | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.status not in TERMINAL_STATUSES:
            raise ValueError(
                f"unknown outcome status {self.status!r}; "
                f"choose from {TERMINAL_STATUSES}"
            )

    @property
    def ok(self) -> bool:
        """Rejections are graceful shed-load; only admitted-then-lost
        queries count as serving failures."""
        return self.status in ("completed", "rejected")

    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "status": self.status,
            "gpu_ids": list(self.gpu_ids),
            "priority": self.priority,
            "arrival": self.arrival,
            "queue_wait": self.queue_wait,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
        }
        for key in ("admitted_at", "finished_at", "latency", "join_time",
                    "matches", "match_digest"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.crashed_gpus:
            payload["crashed_gpus"] = list(self.crashed_gpus)
        if self.rejection is not None:
            payload["rejection"] = self.rejection.to_dict()
        if self.integrity is not None:
            payload["integrity"] = self.integrity.to_dict()
        if self.detail:
            payload["detail"] = self.detail
        return payload


def load_requests(path: "str | Path") -> tuple[QueryRequest, ...]:
    """Load a request file: a JSON list or ``{"requests": [...]}``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, dict):
        payload = payload.get("requests")
    if not isinstance(payload, list):
        raise ValueError(
            f"{path}: expected a JSON list of requests or an object "
            f"with a 'requests' list"
        )
    requests = []
    for index, entry in enumerate(payload):
        try:
            requests.append(QueryRequest.from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"request #{index} in {path} is malformed: {exc}") from exc
    _check_unique_names(requests)
    return tuple(requests)


def synthetic_requests(
    count: int,
    *,
    gpus: int = 2,
    tuples: int = 2048,
    arrival_spacing: float = 0.0,
    deadline: float | None = None,
    priority_period: int = 0,
    seed: int = 42,
) -> tuple[QueryRequest, ...]:
    """Deterministic synthetic request stream (``repro serve --synthetic``).

    ``arrival_spacing`` seconds separate consecutive arrivals (0 = all
    at the same instant — the admission-ordering stress case);
    ``priority_period > 0`` marks every Nth query high-priority. Each
    query gets its own workload seed so tenants carry distinct data.
    """
    if count < 1:
        raise ValueError("synthetic request count must be >= 1")
    requests = []
    for index in range(count):
        requests.append(
            QueryRequest(
                name=f"q{index:03d}",
                arrival=index * arrival_spacing,
                gpus=gpus,
                tuples=tuples,
                priority=(
                    1 if priority_period and index % priority_period == 0 else 0
                ),
                deadline=deadline,
                seed=seed + index,
            )
        )
    return tuple(requests)


def _check_unique_names(requests: "list[QueryRequest]") -> None:
    seen: set[str] = set()
    for request in requests:
        if request.name in seen:
            raise ValueError(f"duplicate query name {request.name!r}")
        seen.add(request.name)
