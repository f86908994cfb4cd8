"""Multi-query serving: many concurrent MG-Joins on one shared machine.

The paper runs one join at a time; a real deployment multiplexes many.
This package adds the serving layer on top of the simulated fabric:

* :mod:`repro.serve.requests` — request/outcome structures, request
  files and deterministic synthetic streams;
* :mod:`repro.serve.fabric` — the per-query session that runs one
  :class:`~repro.sim.shuffle.ShuffleGroup` on the shared
  :class:`~repro.sim.fabric.Fabric` (one clock, one set of link
  channels, optional per-link bandwidth arbitration, one fault
  injector), keeping routing, recovery and retry budgets isolated per
  tenant;
* :mod:`repro.serve.scheduler` — admission control (bounded in-flight
  queries + bounded queue, structured shed-load rejections), deadlines
  with clean cancellation, and per-tenant SLA telemetry.

Chaos under concurrency — a GPU crash with >= N queries in flight must
leave every query's canonical match digest byte-identical to its solo
healthy run — is graded by :func:`repro.faults.chaos.run_chaos`, the
same driver that grades a solo join: pass it the request batch.
"""

from repro.serve.fabric import QuerySession
from repro.serve.requests import (
    REJECT_REASONS,
    TERMINAL_STATUSES,
    QueryOutcome,
    QueryRejected,
    QueryRequest,
    load_requests,
    synthetic_requests,
)
from repro.serve.scheduler import (
    QueryScheduler,
    ServeReport,
    resolve_gpu_ids,
    workload_for,
)
from repro.sim.fabric import Fabric
from repro.sim.recovery import RecoveryManager

__all__ = [
    "Fabric",
    "QueryOutcome",
    "QueryRejected",
    "QueryRequest",
    "QueryScheduler",
    "QuerySession",
    "REJECT_REASONS",
    "RecoveryManager",
    "ServeReport",
    "TERMINAL_STATUSES",
    "load_requests",
    "resolve_gpu_ids",
    "synthetic_requests",
    "workload_for",
]
