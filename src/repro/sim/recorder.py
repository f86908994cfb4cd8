"""The one instrumentation seam of the simulator.

The simulator reports what happens to links, packets, recovery, the
integrity layer, the fault injector and the routing policies by
calling one hook per event on every recorder of the run: the tuple
:func:`~repro.sim.fabric.run_recorders` builds, in call order sampler,
trace lanes, conformance probe, observer.  The fabric hands it to link
channels and the fault injector, GPU nodes and policies get it from
their routing context, and a flow group's recovery manager, integrity
layer and crash coordinator where the group builds them.  The run's
results take the same road: a solo shuffle reports its start and its
:class:`~repro.sim.stats.ShuffleReport`, the query scheduler each
query's lifecycle step and its ``ServeReport``, and ``MGJoin`` its
finished join.  Every hook of :class:`Recorder` does nothing, so a
recorder overrides only the events it reads; the fabric and what it
drives know no metric name, trace track or stream schema.
"""

from __future__ import annotations

__all__ = ["Recorder"]


class Recorder:
    """Base of every activity recorder: one no-op hook per event."""

    def record_fabric(self, fabric) -> None:
        """``fabric`` was built: its engine, board and link channels
        exist and no event has run yet."""

    def record_drained(self, fabric) -> None:
        """The engine of ``fabric`` has drained; every total its
        components keep is final."""

    def record_decision(self, decision) -> None:
        """A routing policy fixed a batch's route; ``decision`` is a
        :class:`~repro.routing.base.RouteDecision`."""

    def record_queue(self, channel) -> None:
        """A link channel's queue changed (a commit or a fulfil)."""

    def record_transfer(self, channel, submit, start, end, nbytes) -> None:
        """A transfer of ``nbytes`` was booked on a link channel."""

    def record_injection(self, node, route, batch) -> None:
        """A GPU node routed ``batch`` over ``route``, before the batch
        committed any link."""

    def record_delivery(self, packet, now) -> None:
        """``packet`` reached its destination and was accepted."""

    def record_retry(self, gpu, packet, reason, rerouted, now) -> None:
        """GPU ``gpu`` retried a lost packet (on a new route if
        ``rerouted``)."""

    def record_fallback(self, gpu, packet, reason, penalty, now) -> None:
        """GPU ``gpu`` sent ``packet`` over the host relay; it arrives
        ``penalty`` seconds from now."""

    def record_repair_spend(self, query, spent, now) -> None:
        """A retry or fallback spent a unit of the repair budget of
        ``query`` (``""`` for a solo run); ``spent`` units so far."""

    def record_integrity(self, kind, packet, now) -> None:
        """The verified transport dropped a duplicate (``"dup-dropped"``)
        or caught a stale checksum (``"checksum-failure"``)."""

    def record_gpu_dead(self, gpu, crashed_at, now, config) -> None:
        """A crash coordinator with recovery knobs ``config`` declared
        ``gpu``, crashed at ``crashed_at``, dead."""

    def record_fault(self, action, event, now) -> None:
        """A fault event was injected (``"fault.inject"``) or restored
        (``"fault.restore"``)."""

    def record_link_health(self, name, channel, now) -> None:
        """A link channel really went down (``"link.down"``) or came
        back up (``"link.up"``)."""

    # Run-level results.

    def record_shuffle_started(self, fabric, gpus, policy, faulted) -> None:
        """A solo shuffle of ``gpus`` GPUs under the policy named
        ``policy`` starts on ``fabric``, with a fault plan bound if
        ``faulted``."""

    def record_report(self, fabric, report) -> None:
        """A solo shuffle on the drained ``fabric`` built its
        :class:`~repro.sim.stats.ShuffleReport`."""

    def record_query(self, action, name, now, **fields) -> None:
        """Served query ``name`` took lifecycle step ``action``
        (``"submitted"``, ``"admitted"``, ``"rejected"``, ...)."""

    def record_serve(self, report) -> None:
        """A query scheduler run ended with
        :class:`~repro.serve.scheduler.ServeReport` ``report``."""

    def record_join(self, result, joined, overlapped) -> None:
        """A join composed ``result`` (a
        :class:`~repro.core.mgjoin.JoinResult`) from the functional pass
        ``joined``; ``overlapped`` says whether its distribution step
        hid under the partitioning passes."""
