"""Shared simulated fabric + per-query sessions for the serving layer.

One :class:`ServeFabric` owns everything tenants share — the event
kernel, the link channels (optionally wrapped in per-link
:class:`~repro.sim.linksim.LinkArbiter` instances), the queue-delay
board and the fault injector.  Each admitted query gets its own
:class:`QuerySession` holding everything that must stay isolated: a
route enumerator restricted to the query's GPUs, a fresh routing-policy
instance, its GPU nodes (tagged with the query id), its own retry
budget (:class:`BudgetedRecoveryManager`) and — when the fault plan can
kill GPUs — its own crash coordinator and join-level recovery bridge.

A session splits the join pipeline the same way :class:`~repro.core.
mgjoin.MGJoin.run` composes it, so a query served here produces the
exact digest, match count and phase accounting a solo ``repro join``
would:

* **prepare** (off-clock, at admission): histograms, partition
  assignment, compression model, the flow matrix, and the kernel-paced
  injection/consume rates;
* **on-clock**: only the data-distribution step runs on the shared
  engine, concurrently with every other admitted query;
* **finalize** (off-clock, after the engine drains): per-session byte
  conservation is checked with the same rules as
  :meth:`~repro.sim.shuffle.ShuffleSimulator._build_report`, then the
  functional pass (distribution, local partitioning, probe) runs
  against the final — possibly crash-recovered — assignment.

The match digest is a pure function of the workload and the final
assignment, never of shuffle timing, which is what makes per-query
byte-identity under concurrency + faults provable at all.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.core.global_partition import execute_distribution, plan_flows
from repro.core.histogram import build_histograms, max_partitions
from repro.core.mgjoin import MGJoin, PhaseBreakdown, _single_gpu_assignment
from repro.routing.base import RoutingContext
from repro.sim.engine import Engine, SimulationError
from repro.sim.gpusim import GpuNode
from repro.sim.linksim import (
    ARBITRATION_MODES,
    LinkArbiter,
    LinkChannel,
    LinkStateBoard,
)
from repro.sim.recovery import RecoveryConfig, RecoveryManager, RetryPolicy
from repro.topology.routes import RouteEnumerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import MGJoinConfig
    from repro.core.relation import JoinWorkload
    from repro.faults.plan import FaultPlan
    from repro.obs import Observer
    from repro.routing.base import RoutingPolicy

__all__ = ["ServeFabric", "QuerySession", "BudgetedRecoveryManager"]


@dataclass
class BudgetedRecoveryManager(RecoveryManager):
    """Per-query recovery accounting with a hard repair budget.

    Every retry and host fallback spends one unit; once ``budget`` is
    exhausted the session's ``on_exhausted`` callback fires (once, on a
    zero-delay engine event so it never re-enters node coroutines) and
    the scheduler cancels the query with a structured
    ``retry-budget-exhausted`` failure instead of letting a permanent
    fault grind it forever.  ``budget=None`` keeps the legacy unbounded
    behaviour.
    """

    budget: int | None = None
    on_exhausted: Callable[[], None] | None = None
    query: str = ""
    spent: int = 0
    tripped: bool = field(default=False, repr=False)

    def _charge(self) -> None:
        self.spent += 1
        if (
            self.query
            and self.observer is not None
            and self.observer.stream is not None
        ):
            self.observer.stream.emit(
                "query",
                t=self.engine.now,
                clock="sim",
                action="retry",
                query=self.query,
                spent=self.spent,
            )
        if self.tripped or self.budget is None:
            return
        if self.spent > self.budget:
            self.tripped = True
            if self.on_exhausted is not None:
                self.engine.schedule(0.0, self.on_exhausted)

    def record_retry(self, node, packet, *, reason, rerouted) -> None:
        super().record_retry(node, packet, reason=reason, rerouted=rerouted)
        self._charge()

    def fallback(self, node, packet, *, reason) -> None:
        super().fallback(node, packet, reason=reason)
        self._charge()


class ServeFabric:
    """Everything concurrent queries share: clock, links, board, faults."""

    def __init__(
        self,
        machine,
        *,
        engine_factory=None,
        shuffle_config=None,
        arbitration: str | None = None,
        observer: "Observer | None" = None,
        tracer=None,
    ) -> None:
        from repro.sim.shuffle import ShuffleConfig

        if arbitration is not None and arbitration not in ARBITRATION_MODES:
            raise ValueError(
                f"unknown arbitration mode {arbitration!r}; "
                f"choose from {ARBITRATION_MODES}"
            )
        self.machine = machine
        self.config = shuffle_config or ShuffleConfig()
        self.arbitration = arbitration
        self.observer = observer
        factory = engine_factory if engine_factory is not None else Engine
        self.engine: Engine = factory()
        self.board = LinkStateBoard(
            self.engine,
            broadcast_latency=self.config.broadcast_latency,
            threshold=self.config.broadcast_threshold,
            quantum=self.config.broadcast_quantum,
            observer=observer,
        )
        self.links: dict[int, LinkChannel] = {
            spec.link_id: LinkChannel(
                self.engine, spec, self.board, tracer, observer=observer
            )
            for spec in machine.links
        }
        if arbitration is not None:
            for channel in self.links.values():
                channel.arbiter = LinkArbiter(channel, mode=arbitration)
        self.injector = None
        self.stream = observer.stream if observer is not None else None
        if self.stream is not None:
            from repro.obs.stream import LinkPump

            LinkPump(self.stream, self.engine, self.links)

    def bind_faults(self, plan: "FaultPlan", gpu_universe: set[int]) -> None:
        """Arm the shared fault injector before any query is admitted.

        Sessions register their recovery scopes as they are admitted;
        ``gpu_universe`` (the union of every request's GPU set) defines
        which GPUs count as valid fault targets.  Corruption-class
        faults need the per-run verified-transport layer, which is not
        shared across tenants — reject them here rather than hang a
        tenant later.
        """
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import CORRUPTION_KINDS

        for event in plan.events:
            if event.kind in CORRUPTION_KINDS:
                raise ValueError(
                    f"plan {plan.name!r}: {event.kind.value} faults are not "
                    f"supported by the serving layer (verified transport is "
                    f"per-query, not a shared-fabric facility)"
                )
        self.injector = FaultInjector(plan)
        self.injector.bind(
            engine=self.engine,
            links=self.links,
            board=self.board,
            nodes={},
            enumerator=None,
            machine=self.machine,
            packet_size=self.config.packet_size,
            observer=self.observer,
            gpu_universe=gpu_universe,
        )

    def set_priority(self, tag: int, priority: int) -> None:
        """Record one query's arbitration priority on every shared link."""
        if priority == 0:
            return
        for channel in self.links.values():
            if channel.arbiter is not None:
                channel.arbiter.priorities[tag] = priority

    @property
    def crashed_gpus(self) -> set[int]:
        return self.injector.crashed_gpus if self.injector is not None else set()


class QuerySession:
    """One admitted query's isolated run against the shared fabric."""

    def __init__(
        self,
        fabric: ServeFabric,
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
        self.retry = retry or RetryPolicy()
        self.recovery_config = recovery_config or RecoveryConfig()
        self.retry_budget = retry_budget
        self.priority = priority
        self.gpu_ids = workload.gpu_ids
        #: "pending" -> "running" -> one of the terminal states.
        self.state = "pending"
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.on_done: Callable[["QuerySession"], None] | None = None
        self.nodes: dict[int, GpuNode] = {}
        self.recovery: BudgetedRecoveryManager | None = None
        self.coordinator = None
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
        worst_outgoing = max(
            (sum(self.flows.outgoing(g).values()) for g in gpu_ids), default=0
        )
        self.injection_rate = (
            worst_outgoing / self.global_pass_time
            if self.global_pass_time > 0
            else None
        )
        tuples_per_second = (
            compute.partition_efficiency
            * compute.spec.memory_bandwidth
            / (2.0 * config.tuple_bytes)
        )
        self.consume_rate = tuples_per_second * self.compression.bytes_per_tuple
        self.hbm_tax = self.join._hbm_communication_tax(self.flows, gpu_ids)

    # ------------------------------------------------------------------
    # On-clock session (the data-distribution step, shared fabric)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the query's shuffle on the shared engine clock."""
        if self.state != "pending":
            raise RuntimeError(f"session {self.name!r} already {self.state}")
        fabric = self.fabric
        engine = fabric.engine
        config = fabric.config
        self.state = "running"
        self.started_at = engine.now
        fabric.set_priority(self.tag, self.priority)
        if not self.flows.flows:
            # Nothing crosses the fabric (single-GPU query, or the
            # assignment kept every partition local): the distribution
            # step is empty and the query completes this instant.
            self.distribution_elapsed = 0.0
            engine.schedule(0.0, self._session_done)
            return
        self.enumerator = RouteEnumerator(
            fabric.machine,
            allowed_gpus=self.gpu_ids,
            max_intermediates=config.max_intermediates,
        )
        context = RoutingContext(
            engine=engine,
            machine=fabric.machine,
            enumerator=self.enumerator,
            links=fabric.links,
            board=fabric.board,
            num_gpus=len(self.gpu_ids),
            observer=fabric.observer,
            sampler=None,
            conformance=None,
        )
        if self.faults is not None:
            self.recovery = BudgetedRecoveryManager(
                engine,
                policy=self.retry,
                observer=fabric.observer,
                jitter_seed=zlib.crc32(self.faults.name.encode("utf-8"))
                ^ self.faults.seed
                ^ self.tag,
                budget=self.retry_budget,
                on_exhausted=self._on_budget_exhausted,
                query=self.name,
            )
        if self.recovery is not None and self.bridge is not None:
            from repro.sim.recovery import CrashCoordinator

            self.coordinator = CrashCoordinator(
                engine,
                self.recovery_config,
                fabric.board,
                self.enumerator,
                self.recovery,
                packet_size=config.packet_size,
                header_bytes=config.header_bytes,
                bridge=self.bridge,
                observer=fabric.observer,
            )
        for gpu_id in self.gpu_ids:
            self.nodes[gpu_id] = GpuNode(
                engine,
                gpu_id,
                fabric.machine,
                fabric.links,
                self.policy,
                context,
                packet_size=config.packet_size,
                batch_size=config.batch_size,
                header_bytes=config.header_bytes,
                buffer_slots=config.buffer_slots,
                buffer_sync_latency=config.buffer_sync_latency,
                dma_engines=config.dma_engines,
                injection_rate=self.injection_rate,
                consume_rate=self.consume_rate,
                on_delivery=self._on_delivery,
                recovery=self.recovery,
                coordinator=self.coordinator,
                query_tag=self.tag,
            )
        for node in self.nodes.values():
            node.peers = self.nodes
        if self.coordinator is not None:
            self.coordinator.nodes = self.nodes
            self.coordinator.plan(self.gpu_ids, self.flows)
        if fabric.injector is not None:
            fabric.injector.register_group(
                nodes=self.nodes,
                enumerator=self.enumerator,
                coordinator=self.coordinator,
            )
        for gpu_id in self.gpu_ids:
            outgoing = self.flows.outgoing(gpu_id)
            if outgoing:
                self.nodes[gpu_id].start_flows(outgoing)

    def _on_delivery(self, packet) -> None:
        if self.state != "running":
            return
        crashed = (
            self.coordinator.crashed_gpus
            if self.coordinator is not None
            else frozenset()
        )
        if crashed:
            live = sum(
                node.stats.delivered_bytes
                for gpu_id, node in self.nodes.items()
                if gpu_id not in crashed
            )
            if live < self.coordinator.expected_live_bytes():
                return
        else:
            delivered = sum(
                node.stats.delivered_bytes for node in self.nodes.values()
            )
            if delivered < self.flows.total_bytes:
                return
        self._session_done()

    def _session_done(self) -> None:
        if self.state != "running":
            return
        self.state = "delivered"
        engine = self.fabric.engine
        self.finished_at = engine.now
        crashed = (
            self.coordinator.crashed_gpus
            if self.coordinator is not None
            else frozenset()
        )
        self.distribution_elapsed = max(
            (
                node.stats.last_delivery_time - self.started_at
                for gpu_id, node in self.nodes.items()
                if gpu_id not in crashed
            ),
            default=0.0,
        )
        self._detach()
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
        for node in self.nodes.values():
            node.cancel_remaining()
        self._detach()
        if self.on_done is not None:
            self.fabric.engine.schedule(0.0, self.on_done, self)

    def _detach(self) -> None:
        # A finished/cancelled query must never again be touched by
        # fabric faults (a later crash of one of its GPUs belongs to
        # whoever is *still* running there).
        if self.fabric.injector is not None and self.nodes:
            self.fabric.injector.unregister_group(self.nodes)

    # ------------------------------------------------------------------
    # Off-clock finalize (mirrors MGJoin.run phases 2b-4 + composition)
    # ------------------------------------------------------------------

    def finalize(self) -> dict:
        """Check conservation, run the functional pass, compose timings.

        Only meaningful for sessions that reached ``delivered``; raises
        :class:`~repro.sim.engine.SimulationError` if the session lost
        bytes (same rules as the standalone shuffle report).
        """
        if self.state != "delivered":
            raise RuntimeError(
                f"session {self.name!r} cannot finalize from state {self.state!r}"
            )
        crashed = (
            set(self.coordinator.crashed_gpus)
            if self.coordinator is not None
            else set()
        )
        if self.flows.flows:
            delivered = sum(
                node.stats.delivered_bytes for node in self.nodes.values()
            )
            if crashed:
                live = sum(
                    node.stats.delivered_bytes
                    for gpu_id, node in self.nodes.items()
                    if gpu_id not in crashed
                )
                expected = self.coordinator.expected_live_bytes()
                if live < expected:
                    raise SimulationError(
                        f"query {self.name!r}: crash recovery lost data: "
                        f"survivors received {live} of {expected} expected bytes"
                    )
            elif delivered != self.flows.total_bytes:
                raise SimulationError(
                    f"query {self.name!r}: shuffle stalled: delivered "
                    f"{delivered} of {self.flows.total_bytes} bytes"
                )
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
