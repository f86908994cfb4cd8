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
coordinator and join-level recovery bridge.

A session splits the join pipeline the same way :class:`~repro.core.
mgjoin.MGJoin.run` composes it, so a query served here produces the
exact digest, match count and phase accounting a solo ``repro join``
would:

* **prepare** (off-clock, at admission): histograms, partition
  assignment, compression model, the flow matrix, and the kernel-paced
  injection/consume rates;
* **on-clock**: only the data-distribution step runs on the shared
  engine, concurrently with every other admitted query;
* **finalize** (off-clock, after the engine drains): the group's byte
  conservation rule (:meth:`~repro.sim.shuffle.ShuffleGroup.
  check_conservation`, the one a solo shuffle report checks) is
  applied, then the functional pass (distribution, local partitioning,
  probe) runs against the final — possibly crash-recovered —
  assignment.

The match digest is a pure function of the workload and the final
assignment, never of shuffle timing, which is what makes per-query
byte-identity under concurrency + faults provable at all.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from repro.core.global_partition import execute_distribution, plan_flows
from repro.core.histogram import build_histograms, max_partitions
from repro.core.mgjoin import MGJoin, PhaseBreakdown, _single_gpu_assignment
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
        self.workload = workload
        self.config = config
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
        self.distribution_elapsed = 0.0
        self._prepare()

    # ------------------------------------------------------------------
    # Off-clock prepare (mirrors MGJoin.run phases 1-2a)
    # ------------------------------------------------------------------

    def _prepare(self) -> None:
        workload = self.workload
        config = self.config
        compute = config.compute
        gpu_ids = self.gpu_ids
        self.scale = workload.logical_scale
        # The per-query MGJoin instance supplies the template hooks
        # (assignment, compression, recovery bridge, local planning,
        # probe) so serving can never drift from the solo pipeline.
        self.join = MGJoin(
            self.fabric.machine, config, policy=self.policy, faults=self.faults
        )
        self.num_partitions = config.num_partitions or max_partitions(
            compute.spec, config.histogram_entry_bytes, config.thread_blocks_per_sm
        )
        self.histograms = build_histograms(
            workload.r, workload.s, self.num_partitions
        )
        self.histogram_time = max(
            compute.histogram_time(
                workload.logical_tuples_on(g), key_bytes=config.key_bytes
            )
            for g in gpu_ids
        )
        if len(gpu_ids) > 1:
            self.assignment = self.join._make_assignment(self.histograms)
        else:
            self.assignment = _single_gpu_assignment(self.histograms)
        self.compression = self.join._compression_model(
            workload, self.num_partitions
        )
        self.bridge = self.join._make_recovery_bridge(
            self.histograms, self.assignment, self.compression, gpu_ids, self.scale
        )
        self.global_pass_time = max(
            compute.partition_time(
                workload.logical_tuples_on(g), config.tuple_bytes, passes=1
            )
            for g in gpu_ids
        )
        self.flows = plan_flows(
            self.histograms, self.assignment, self.compression, self.scale
        )
        self.shuffle_config = self.join._shuffle_config(
            self.flows, gpu_ids, self.global_pass_time, self.compression
        )
        self.hbm_tax = self.join._hbm_communication_tax(self.flows, gpu_ids)

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
        if not self.flows.flows:
            # Nothing crosses the fabric (single-GPU query, or the
            # assignment kept every partition local): the distribution
            # step is empty and the query completes this instant.
            fabric.engine.schedule(0.0, self._session_done)
            return
        group = ShuffleGroup(
            fabric,
            self.gpu_ids,
            self.flows,
            self.policy,
            config=self.shuffle_config,
            faults=self.faults,
            retry=self.retry,
            recovery_bridge=self.bridge,
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
            self.distribution_elapsed = self.group.elapsed
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
    # Off-clock finalize (mirrors MGJoin.run phases 2b-4 + composition)
    # ------------------------------------------------------------------

    def finalize(self) -> dict:
        """Check conservation, run the functional pass, compose timings.

        Only meaningful for sessions that reached ``delivered``; raises
        :class:`~repro.sim.engine.SimulationError` if the session lost
        bytes (the rule a solo shuffle report checks).
        """
        if self.state != "delivered":
            raise RuntimeError(
                f"session {self.name!r} cannot finalize from state {self.state!r}"
            )
        if self.group is not None:
            self.group.check_conservation()
        workload = self.workload
        assignment = self.assignment
        dead = set(self.bridge.dead_gpus) if self.bridge is not None else set()
        if dead:
            assignment = self.bridge.final_assignment
        data = execute_distribution(
            workload.r, workload.s, self.histograms, assignment
        )
        live_ids = tuple(g for g in self.gpu_ids if g not in dead)
        local_passes, _pass_time, local_total_time = self.join._plan_local(
            data, live_ids, self.num_partitions, self.scale
        )
        matches, per_gpu_matches, probe_time, match_digest = self.join._probe(
            data, live_ids, self.num_partitions, local_passes, self.scale
        )
        for gpu_id in sorted(dead):
            per_gpu_matches[gpu_id] = 0
        compute_chain = self.global_pass_time + local_total_time
        phase23 = max(compute_chain + self.hbm_tax, self.distribution_elapsed)
        breakdown = PhaseBreakdown(
            histogram=self.histogram_time,
            partition_compute=compute_chain,
            distribution_exposed=phase23 - compute_chain,
            probe=probe_time,
        )
        return {
            "matches": matches,
            "per_gpu_matches": per_gpu_matches,
            "match_digest": match_digest,
            "breakdown": breakdown,
            "join_time": breakdown.total,
            "local_passes": local_passes,
            "dead_gpus": tuple(sorted(dead)),
            "distribution_elapsed": self.distribution_elapsed,
        }
