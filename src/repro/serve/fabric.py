"""Per-query sessions of the serving layer on one shared fabric.

Every admitted query shares one :class:`~repro.sim.fabric.Fabric` — the
event kernel, the link channels (optionally wrapped in per-link
:class:`~repro.sim.linksim.LinkArbiter` instances), the queue-delay
board and the fault injector.  Each :class:`QuerySession` runs its
data-distribution step as one :class:`~repro.sim.shuffle.ShuffleGroup`
on it — the same wiring a solo ``repro join`` uses — so everything that
must stay isolated stays per query: a route enumerator restricted to
the query's GPUs, a fresh routing-policy instance, its GPU nodes
(tagged with the query id), its own retry budget, its own integrity
layer and — when the fault plan can kill GPUs — its own crash
coordinator and join-level recovery bridge.  A corruption fault on a
shared link reports each tampered packet to the integrity layer of the
query that sent it.

Around that step a session runs the solo join's own two halves,
:meth:`~repro.core.mgjoin.MGJoin.prepare` at admission and
:meth:`~repro.core.mgjoin.MGJoin.finish` after the engine drains, so a
served query produces the exact digest, match count and phase
accounting a solo ``repro join`` would, with a shuffle report from the
same builder.  Only the distribution step runs on the shared clock,
concurrently with every other admitted query.

The match digest is a pure function of the workload and the final
assignment, never of shuffle timing, which is what makes per-query
byte-identity under concurrency + faults provable at all.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

# Unused here; benchmarks/e2e/test_trace.py checks the tracer rebinds it.
from repro.core.global_partition import execute_distribution  # noqa: F401
from repro.core.mgjoin import JoinResult, MGJoin
from repro.sim.fabric import Fabric
from repro.sim.gpusim import GpuNode
from repro.sim.recovery import RecoveryConfig, RecoveryManager, RetryPolicy
from repro.sim.shuffle import ShuffleGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import MGJoinConfig
    from repro.core.relation import JoinWorkload
    from repro.faults.plan import FaultPlan
    from repro.routing.base import RoutingPolicy

__all__ = ["QuerySession"]


class QuerySession:
    """One admitted query's isolated run against the shared fabric."""

    def __init__(
        self,
        fabric: Fabric,
        *,
        name: str,
        tag: int,
        workload: "JoinWorkload",
        config: "MGJoinConfig",
        policy: "RoutingPolicy",
        faults: "FaultPlan | None" = None,
        retry: RetryPolicy | None = None,
        recovery_config: RecoveryConfig | None = None,
        retry_budget: int | None = None,
        priority: int = 0,
    ) -> None:
        self.fabric = fabric
        self.name = name
        self.tag = tag
        self.policy = policy
        self.faults = faults
        self.retry = retry
        self.recovery_config = recovery_config
        self.retry_budget = retry_budget
        self.priority = priority
        self.gpu_ids = workload.gpu_ids
        #: "pending" -> "running" -> one of the terminal states.
        self.state = "pending"
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.on_done: Callable[["QuerySession"], None] | None = None
        #: The query's flow group; ``None`` until started, and for a
        #: query whose distribution step moves nothing.
        self.group: ShuffleGroup | None = None
        self.nodes: dict[int, GpuNode] = {}
        self.recovery: RecoveryManager | None = None
        self.coordinator = None
        self.join = MGJoin(fabric.machine, config, policy=policy, faults=faults)
        self.plan = self.join.prepare(workload)

    # ------------------------------------------------------------------
    # On-clock session (the data-distribution step, shared fabric)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the query's shuffle on the shared engine clock."""
        if self.state != "pending":
            raise RuntimeError(f"session {self.name!r} already {self.state}")
        fabric = self.fabric
        self.state = "running"
        self.started_at = fabric.engine.now
        fabric.set_priority(self.tag, self.priority)
        plan = self.plan
        if not plan.flows.flows:
            # Nothing crosses the fabric (single-GPU query, or the
            # assignment kept every partition local): the distribution
            # step is empty and the query completes this instant.
            fabric.engine.schedule(0.0, self._session_done)
            return
        group = ShuffleGroup(
            fabric,
            self.gpu_ids,
            plan.flows,
            self.policy,
            config=plan.shuffle_config,
            faults=self.faults,
            retry=self.retry,
            recovery_bridge=plan.bridge,
            recovery_config=self.recovery_config,
            tag=self.tag,
            query=self.name,
            retry_budget=self.retry_budget,
            on_exhausted=self._on_budget_exhausted,
        )
        group.on_complete = self._session_done
        self.group = group
        self.nodes = group.nodes
        self.recovery = group.recovery
        self.coordinator = group.coordinator
        group.start()

    def _session_done(self) -> None:
        if self.state != "running":
            return
        self.state = "delivered"
        engine = self.fabric.engine
        self.finished_at = engine.now
        if self.group is not None:
            # A finished query must never again be touched by fabric
            # faults (a later crash of one of its GPUs belongs to
            # whoever is *still* running there).
            self.group.stop()
        if self.on_done is not None:
            # Zero-delay hop: slot release / next admission happen as
            # their own engine event, never from inside a node process.
            engine.schedule(0.0, self.on_done, self)

    def _on_budget_exhausted(self) -> None:
        self.cancel("retry-budget-exhausted")

    def cancel(self, state: str) -> None:
        """Stop the query cold: drop queued work, free its commitments.

        Used for deadline expiry and retry-budget exhaustion.  Sibling
        queries are untouched: only this session's nodes are cancelled
        and only its scope is dropped from the fault injector.
        """
        if self.state != "running":
            return
        self.state = state
        self.finished_at = self.fabric.engine.now
        if self.group is not None:
            self.group.cancel()
        if self.on_done is not None:
            self.fabric.engine.schedule(0.0, self.on_done, self)

    # ------------------------------------------------------------------
    # Off-clock finalize
    # ------------------------------------------------------------------

    def finalize(self) -> JoinResult:
        """Report the query's shuffle, then finish the join off the
        shared clock.

        Only meaningful for sessions that reached ``delivered``, and
        called once the engine has drained, as a solo run builds its
        report.  The group's :meth:`~repro.sim.shuffle.ShuffleGroup.report`
        raises :class:`~repro.sim.engine.SimulationError` if the session
        lost bytes.
        """
        if self.state != "delivered":
            raise RuntimeError(
                f"session {self.name!r} cannot finalize from state {self.state!r}"
            )
        group = self.group
        report = group.report(self.policy.name) if group is not None else None
        return self.join.finish(self.plan, report)
