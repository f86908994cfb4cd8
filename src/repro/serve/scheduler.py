"""The query scheduler: admission control, deadlines, fault isolation.

:class:`QueryScheduler` multiplexes a stream of
:class:`~repro.serve.requests.QueryRequest` onto one
:class:`~repro.sim.fabric.Fabric`, one
:class:`~repro.serve.fabric.QuerySession` per admitted query.  Its
contract:

* **Bounded concurrency** — at most ``max_in_flight`` queries run at
  once; at most ``queue_depth`` more wait in an arrival-ordered queue.
  Anything beyond that is answered *immediately* with a structured
  :class:`~repro.serve.requests.QueryRejected` (reason ``queue-full``,
  or ``no-capacity`` when the scheduler serves nothing at all) — an
  overloaded scheduler sheds load, it never hangs a tenant.
* **Deterministic ordering** — arrivals are scheduled in sorted
  (arrival, name) order before the engine starts, so same-instant
  admissions drain in the same sequence on the fast and the reference
  kernel alike.
* **Deadlines** — a query that has not completed by
  ``arrival + deadline`` is cancelled cleanly (queued work dropped,
  link/buffer commitments returned, fault scope detached) and reported
  as ``deadline-expired``.  A query still queued past its deadline
  never starts.
* **Fault isolation** — faults are injected once, on the shared
  fabric; each session carries its own recovery stack, so a GPU crash
  recovers *only* the queries running on that GPU while siblings
  complete untouched, and a query that exhausts its per-query retry
  budget fails alone (``retry-budget-exhausted``).
* **Post-crash admission** — a request whose GPUs include an
  already-crashed GPU is shed with ``gpu-unavailable`` instead of
  being started against dead hardware.

Everything lands in a :class:`ServeReport`: one terminal
:class:`~repro.serve.requests.QueryOutcome` per request, per-tenant SLA
metrics through the observer, and an exit code (0 = served, 1 = at
least one admitted query was lost).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, TYPE_CHECKING

from repro.core.config import MGJoinConfig
from repro.serve.fabric import QuerySession
from repro.serve.requests import QueryOutcome, QueryRejected, QueryRequest
from repro.sim.fabric import Fabric
from repro.workloads.generator import WorkloadSpec, generate_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.relation import JoinWorkload
    from repro.faults.plan import FaultPlan
    from repro.obs import Observer
    from repro.sim.recovery import RecoveryConfig, RetryPolicy
    from repro.topology.machine import MachineTopology

__all__ = ["QueryScheduler", "ServeReport", "resolve_gpu_ids", "workload_for"]


def resolve_gpu_ids(machine: "MachineTopology", request: QueryRequest) -> tuple[int, ...]:
    """Placement: explicit ids validated, else the lowest machine ids.

    Queries deliberately overlap on the low GPUs — contending for the
    same fabric is what the serving layer exists to arbitrate.
    """
    if request.gpu_ids is not None:
        unknown = set(request.gpu_ids) - set(machine.gpu_ids)
        if unknown:
            raise ValueError(
                f"query {request.name!r} references unknown GPUs: "
                f"{sorted(unknown)}"
            )
        return request.gpu_ids
    if request.gpus > len(machine.gpu_ids):
        raise ValueError(
            f"query {request.name!r} wants {request.gpus} GPUs but the "
            f"machine has {len(machine.gpu_ids)}"
        )
    return tuple(sorted(machine.gpu_ids)[: request.gpus])


def workload_for(
    machine: "MachineTopology", request: QueryRequest
) -> "JoinWorkload":
    """The deterministic workload a request stands for.

    Pure function of (machine, request): the chaos harness calls this
    for its solo reference runs, so solo and served executions of
    the same request join byte-identical inputs.
    """
    gpu_ids = resolve_gpu_ids(machine, request)
    logical = (
        request.logical_tuples
        if request.logical_tuples is not None
        else request.tuples
    )
    return generate_workload(
        WorkloadSpec(
            gpu_ids=gpu_ids,
            logical_tuples_per_gpu=logical,
            real_tuples_per_gpu=request.tuples,
            seed=request.seed,
        )
    )


@dataclass
class ServeReport:
    """What one scheduler run did, per query and in aggregate."""

    outcomes: tuple[QueryOutcome, ...]
    elapsed: float
    max_in_flight: int
    queue_depth: int
    in_flight_peak: int = 0
    queue_peak: int = 0
    arbitration: str | None = None
    policy_name: str = ""

    def _count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def rejected(self) -> int:
        return self._count("rejected")

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def exit_code(self) -> int:
        """0 = every admitted query completed (rejections are graceful
        shed-load); 1 = an admitted query was lost to a deadline or an
        exhausted retry budget."""
        return 0 if self.failed == 0 else 1

    def outcome(self, name: str) -> QueryOutcome:
        for candidate in self.outcomes:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no outcome for query {name!r}")

    def to_dict(self) -> dict:
        return {
            "elapsed": self.elapsed,
            "max_in_flight": self.max_in_flight,
            "queue_depth": self.queue_depth,
            "in_flight_peak": self.in_flight_peak,
            "queue_peak": self.queue_peak,
            "arbitration": self.arbitration,
            "policy": self.policy_name,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "exit_code": self.exit_code,
            "queries": [outcome.to_dict() for outcome in self.outcomes],
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"queries              : {len(self.outcomes)}",
            f"completed            : {self.completed}",
            f"rejected (shed)      : {self.rejected}",
            f"failed               : {self.failed}",
            f"in-flight peak       : {self.in_flight_peak}/{self.max_in_flight}",
            f"queue peak           : {self.queue_peak}/{self.queue_depth}",
            f"serve makespan       : {self.elapsed * 1e3:.3f} ms (sim)",
        ]
        waits = [o.queue_wait for o in self.outcomes if o.admitted_at is not None]
        if waits:
            lines.append(
                f"queue wait max       : {max(waits) * 1e3:.3f} ms (sim)"
            )
        return lines


@dataclass
class _Entry:
    """Scheduler-side lifecycle record of one request."""

    request: QueryRequest
    gpu_ids: tuple[int, ...]
    session: QuerySession | None = None
    outcome: QueryOutcome | None = None
    admitted_at: float | None = None


class QueryScheduler:
    """Admits, supervises and settles a batch of join requests."""

    def __init__(
        self,
        machine: "MachineTopology",
        requests: "tuple[QueryRequest, ...] | list[QueryRequest]",
        *,
        policy_factory: "Callable[[], object]",
        config: MGJoinConfig | None = None,
        max_in_flight: int = 4,
        queue_depth: int = 8,
        arbitration: str | None = "fair",
        faults: "FaultPlan | None" = None,
        retry: "RetryPolicy | None" = None,
        recovery: "RecoveryConfig | None" = None,
        retry_budget: int | None = None,
        engine_factory=None,
        observer: "Observer | None" = None,
    ) -> None:
        if max_in_flight < 0:
            raise ValueError("max_in_flight must be >= 0")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.machine = machine
        self.requests = tuple(
            sorted(requests, key=lambda r: (r.arrival, r.name))
        )
        if not self.requests:
            raise ValueError("need at least one query request")
        names = [r.name for r in self.requests]
        if len(set(names)) != len(names):
            raise ValueError("query names must be unique")
        self.policy_factory = policy_factory
        base = config or MGJoinConfig()
        #: Digests are the serving layer's integrity story: every query
        #: materializes its matches so byte-identity stays checkable.
        self.config = replace(base, materialize=True)
        self.max_in_flight = max_in_flight
        self.queue_depth = queue_depth
        self.arbitration = arbitration
        self.faults = faults
        self.retry = retry
        self.recovery = recovery
        self.retry_budget = retry_budget
        self.engine_factory = engine_factory
        self.observer = observer
        self._entries: dict[str, _Entry] = {}
        self._queue: deque[_Entry] = deque()
        self._in_flight = 0
        self._next_tag = 0
        self._in_flight_peak = 0
        self._queue_peak = 0

    # ------------------------------------------------------------------

    def run(self) -> ServeReport:
        """Serve every request to a terminal outcome and report."""
        for request in self.requests:
            gpu_ids = resolve_gpu_ids(self.machine, request)
            self._entries[request.name] = _Entry(request, gpu_ids)
        if self.faults is not None:
            # Serve-context plan validation: every fault must land on
            # hardware some admitted query can reach.
            self.faults.validate(
                self.machine,
                queries={
                    name: entry.gpu_ids
                    for name, entry in self._entries.items()
                },
            )
        fabric = Fabric(
            self.machine,
            self.config.shuffle,
            engine_factory=self.engine_factory,
            arbitration=self.arbitration,
            observer=self.observer,
        )
        self.fabric = fabric
        if self.faults is not None:
            universe: set[int] = set()
            for entry in self._entries.values():
                universe.update(entry.gpu_ids)
            fabric.bind_faults(self.faults, universe)
        # Sorted pre-scheduling: same-instant arrivals keep list order
        # (the engines' same-time FIFO guarantee), and a fault landing
        # exactly at an admission instant is injected first — its
        # events were scheduled before any arrival.
        for request in self.requests:
            fabric.engine.schedule(request.arrival, self._arrive, request)
        fabric.engine.run()
        fabric.export_metrics()
        for request in self.requests:
            entry = self._entries[request.name]
            if entry.outcome is not None:
                continue
            if entry.session is None or entry.session.state != "delivered":
                raise RuntimeError(
                    f"scheduler drained with query {request.name!r} "
                    f"unsettled; this is a bug"
                )
            self._settle(entry)
            self._emit_query(
                "completed", request.name, latency=entry.outcome.latency
            )
        outcomes = tuple(
            self._entries[request.name].outcome for request in self.requests
        )
        # The drain clock overshoots the serving story: un-fired
        # deadline timers and fault restores keep the engine alive past
        # the last terminal outcome.  Makespan is when serving *ended*.
        elapsed = max(
            (o.finished_at for o in outcomes if o.finished_at is not None),
            default=fabric.engine.now,
        )
        report = ServeReport(
            outcomes=outcomes,
            elapsed=elapsed,
            max_in_flight=self.max_in_flight,
            queue_depth=self.queue_depth,
            in_flight_peak=self._in_flight_peak,
            queue_peak=self._queue_peak,
            arbitration=self.arbitration,
            policy_name=self._policy_name(),
        )
        self._export_metrics(report)
        if self.observer is not None and self.observer.stream is not None:
            self.observer.stream.flush()
        return report

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def _policy_name(self) -> str:
        probe = self.policy_factory()
        return getattr(probe, "name", type(probe).__name__)

    def _arrive(self, request: QueryRequest) -> None:
        entry = self._entries[request.name]
        self._emit_query("submitted", request.name, gpus=len(entry.gpu_ids))
        if self.max_in_flight == 0:
            self._reject(entry, "no-capacity", "the scheduler admits nothing")
            return
        blocked = set(entry.gpu_ids) & self.fabric.crashed_gpus
        if blocked:
            self._reject(
                entry,
                "gpu-unavailable",
                f"gpu{sorted(blocked)[0]} crashed before admission",
            )
            return
        if self._in_flight < self.max_in_flight:
            self._admit(entry)
            return
        if len(self._queue) < self.queue_depth:
            self._queue.append(entry)
            self._queue_peak = max(self._queue_peak, len(self._queue))
            self._emit_query(
                "queued", request.name, depth=len(self._queue)
            )
            return
        self._reject(
            entry,
            "queue-full",
            f"{self._in_flight} in flight, {len(self._queue)} queued",
        )

    def _reject(self, entry: _Entry, reason: str, message: str) -> None:
        now = self.fabric.engine.now
        rejection = QueryRejected(
            name=entry.request.name,
            reason=reason,
            at=now,
            in_flight=self._in_flight,
            queued=len(self._queue),
            message=message,
        )
        entry.outcome = QueryOutcome(
            name=entry.request.name,
            status="rejected",
            gpu_ids=entry.gpu_ids,
            priority=entry.request.priority,
            arrival=entry.request.arrival,
            finished_at=now,
            latency=now - entry.request.arrival,
            rejection=rejection,
            detail=message,
        )
        self._emit_query("rejected", entry.request.name, reason=reason)
        if self.observer is not None:
            self.observer.metrics.counter("serve.shed", reason=reason).inc()

    def _admit(self, entry: _Entry) -> None:
        request = entry.request
        now = self.fabric.engine.now
        if (
            request.deadline is not None
            and now > request.arrival + request.deadline
        ):
            # Queued past its own deadline: never start it.
            entry.outcome = self._failure_outcome(
                entry, "deadline-expired", now,
                detail="deadline expired while queued",
            )
            self._emit_query("deadline-expired", request.name, queued=True)
            return
        tag = self._next_tag
        self._next_tag += 1
        session = QuerySession(
            self.fabric,
            name=request.name,
            tag=tag,
            workload=workload_for(self.machine, request),
            config=self.config,
            policy=self.policy_factory(),
            faults=self.faults,
            retry=self.retry,
            recovery_config=self.recovery,
            retry_budget=self.retry_budget,
            priority=request.priority,
        )
        session.on_done = self._session_done
        entry.session = session
        entry.admitted_at = now
        self._in_flight += 1
        self._in_flight_peak = max(self._in_flight_peak, self._in_flight)
        session.start()
        self._emit_query(
            "admitted",
            request.name,
            tag=tag,
            queue_wait=now - request.arrival,
            in_flight=self._in_flight,
        )
        if request.deadline is not None:
            remaining = request.arrival + request.deadline - now
            self.fabric.engine.schedule(remaining, self._deadline, entry)

    def _deadline(self, entry: _Entry) -> None:
        session = entry.session
        if session is None or session.state != "running":
            return
        session.cancel("deadline-expired")

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def _session_done(self, session: QuerySession) -> None:
        entry = self._entries[session.name]
        self._in_flight -= 1
        now = self.fabric.engine.now
        if session.state == "delivered":
            self._emit_query(
                "delivered", session.name, elapsed=now - entry.admitted_at
            )
        else:
            entry.outcome = self._failure_outcome(
                entry,
                session.state,
                session.finished_at,
                detail=(
                    f"retry budget ({self.retry_budget}) exhausted"
                    if session.state == "retry-budget-exhausted"
                    else "deadline expired in flight"
                ),
            )
            self._emit_query(session.state, session.name)
        while self._queue and self._in_flight < self.max_in_flight:
            queued = self._queue.popleft()
            blocked = set(queued.gpu_ids) & self.fabric.crashed_gpus
            if blocked:
                self._reject(
                    queued,
                    "gpu-unavailable",
                    f"gpu{sorted(blocked)[0]} crashed while queued",
                )
                continue
            self._admit(queued)

    def _failure_outcome(
        self, entry: _Entry, status: str, finished_at: float, *, detail: str
    ) -> QueryOutcome:
        request = entry.request
        session = entry.session
        return QueryOutcome(
            name=request.name,
            status=status,
            gpu_ids=entry.gpu_ids,
            priority=request.priority,
            arrival=request.arrival,
            admitted_at=entry.admitted_at,
            finished_at=finished_at,
            queue_wait=(
                entry.admitted_at - request.arrival
                if entry.admitted_at is not None
                else finished_at - request.arrival
            ),
            latency=finished_at - request.arrival,
            retries=session.recovery.retries if session and session.recovery else 0,
            fallbacks=(
                session.recovery.fallbacks if session and session.recovery else 0
            ),
            crashed_gpus=(
                tuple(sorted(session.coordinator.crashed_gpus))
                if session is not None and session.coordinator is not None
                else ()
            ),
            detail=detail,
        )

    def _settle(self, entry: _Entry) -> None:
        """Finalize one delivered session into its outcome (off-clock)."""
        session = entry.session
        result = session.finalize()
        request = entry.request
        entry.outcome = QueryOutcome(
            name=request.name,
            status="completed",
            gpu_ids=entry.gpu_ids,
            priority=request.priority,
            arrival=request.arrival,
            admitted_at=entry.admitted_at,
            finished_at=session.finished_at,
            queue_wait=entry.admitted_at - request.arrival,
            latency=session.finished_at - request.arrival,
            join_time=result.total_time,
            matches=result.matches_real,
            match_digest=result.match_digest,
            retries=session.recovery.retries if session.recovery else 0,
            fallbacks=session.recovery.fallbacks if session.recovery else 0,
            crashed_gpus=(
                tuple(sorted(result.recovery.dead_gpus)) if result.recovery else ()
            ),
        )
        entry.outcome.result = result

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _emit_query(self, action: str, name: str, **fields) -> None:
        observer = self.observer
        if observer is None or observer.stream is None:
            return
        observer.stream.emit(
            "query",
            t=self.fabric.engine.now,
            clock="sim",
            action=action,
            query=name,
            **fields,
        )

    def _export_metrics(self, report: ServeReport) -> None:
        observer = self.observer
        if observer is None:
            return
        metrics = observer.metrics
        metrics.gauge("serve.elapsed_seconds").set(report.elapsed)
        metrics.gauge("serve.completed").set(report.completed)
        metrics.gauge("serve.rejected").set(report.rejected)
        metrics.gauge("serve.failed").set(report.failed)
        metrics.gauge("serve.in_flight_peak").set(report.in_flight_peak)
        metrics.gauge("serve.queue_peak").set(report.queue_peak)
        admitted = [o for o in report.outcomes if o.admitted_at is not None]
        if admitted:
            metrics.gauge("serve.retention_ratio").set(
                sum(1 for o in admitted if o.status == "completed")
                / len(admitted)
            )
        for outcome in report.outcomes:
            if outcome.latency is not None:
                metrics.gauge(
                    "serve.latency_seconds", query=outcome.name
                ).set(outcome.latency)
            metrics.gauge(
                "serve.queue_wait_seconds", query=outcome.name
            ).set(outcome.queue_wait)
