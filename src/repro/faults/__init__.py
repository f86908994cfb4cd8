"""Fault injection, recovery accounting and the chaos harness.

The paper's claim — adaptive multi-hop routing keeps the join at the
speed of the *fastest available* paths — only means something if the
simulator can take paths away.  This package provides:

* :class:`FaultPlan` / :class:`FaultEvent` — declarative, seeded fault
  schedules (YAML/JSON-loadable, reproducible run-to-run),
* :class:`FaultInjector` — applies a plan to a live shuffle simulation
  (link degradation/blackout/failure, GPU stragglers and crashes),
* :func:`run_chaos` — the one chaos driver: runs a join (or a served
  batch of queries) healthy and faulted, grades every query with one
  verdict and reports throughput retention,
* :func:`run_fuzz` — property-based chaos fuzzing: seeded random fault
  plans graded against the healthy digest, failures shrunk to minimal
  reproducers,
* built-in presets (``nvlink-brownout``, ``gpu-straggler``,
  ``link-flap``, ``nvlink-cut``, ``gpu-crash``, ``gpu-crash-x2``,
  ``payload-corrupt``, ``packet-dup``, ``packet-reorder``).

Packet-level recovery (retry/backoff/re-route/host fallback) lives in
:mod:`repro.sim.recovery`; join-level crash recovery (heartbeat
detection, partition reassignment, exact resumption) in
:mod:`repro.core.recovery`; see ``docs/robustness.md`` for the full
semantics.
"""

from repro.faults.chaos import ChaosError, ChaosInputError, ChaosReport
from repro.faults.chaos import resolve_plan, run_chaos
from repro.faults.fuzz import (
    FuzzError,
    FuzzFailure,
    FuzzReport,
    run_fuzz,
    sample_plan,
    shrink_plan,
)
from repro.faults.injector import LINK_DOWN_PENALTY, FaultInjector
from repro.faults.plan import (
    CORRUPTION_KINDS,
    PRESET_NAMES,
    RETRY_FIELDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    build_preset,
)

__all__ = [
    "CORRUPTION_KINDS",
    "ChaosError",
    "ChaosInputError",
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FuzzError",
    "FuzzFailure",
    "FuzzReport",
    "LINK_DOWN_PENALTY",
    "PRESET_NAMES",
    "RETRY_FIELDS",
    "build_preset",
    "resolve_plan",
    "run_chaos",
    "run_fuzz",
    "sample_plan",
    "shrink_plan",
]
