"""One analysed run: its recorders and the analyses that read them."""

from __future__ import annotations

from repro.obs import Observer
from repro.obs.analyze.attribution import BottleneckReport, PhaseWindow, attribute
from repro.obs.analyze.regret import RegretReport, audit_decisions
from repro.obs.analyze.timeline import LinkTimelineSampler
from repro.obs.conformance import ConformanceProbe


class ObservedRun:
    """The observer, link sampler and optional conformance probe of a run.

    Hand :attr:`wiring` to ``ShuffleSimulator`` or ``MGJoin``, run it,
    then read :attr:`observer` and :attr:`sampler` directly or ask for
    the decision :meth:`audit` and the link :meth:`bottlenecks`.
    """

    def __init__(self, *, conformance: bool = False) -> None:
        self.observer = Observer()
        if conformance:
            self.observer.conformance = ConformanceProbe()
        self.sampler = LinkTimelineSampler()

    @property
    def wiring(self) -> dict:
        """The ``observer=``/``sampler=`` keywords a simulated run takes."""
        return {"observer": self.observer, "sampler": self.sampler}

    def audit(self, machine) -> RegretReport:
        """Replay every routing decision against the sampled timelines."""
        return audit_decisions(machine, self.observer, self.sampler)

    def bottlenecks(self, cut, top: int | None = None) -> BottleneckReport:
        """Attribute link time per phase, split at the last route decision:
        before it packets are still injected, after it the network drains.
        In a join (the observer recorded one) the global partition pass
        injects and the local partition pass drains (§4), and the
        windows say so; a bare shuffle has no partition pass."""
        horizon = self.sampler.horizon
        split = max((decision.time for decision in self.observer.decisions), default=0.0)
        phases = None
        if 0.0 < split < horizon:
            inject, drain = "inject", "drain"
            if self.observer.joins:
                inject += " (global partition overlap)"
                drain += " (local partition overlap)"
            phases = [
                PhaseWindow(inject, 0.0, split),
                PhaseWindow(drain, split, horizon),
            ]
        return attribute(self.sampler, cut, phases=phases, top=top)

    def render_fault_events(self, shown: int) -> list[str]:
        """The ``fault / recovery events`` section of ``repro analyze``:
        the first ``shown`` fault instants; empty without any."""
        events = self.observer.spans.find_instants(category="fault")
        if not events:
            return []
        lines = [f"fault / recovery events ({len(events)}):"]
        for instant in events[:shown]:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(instant.attrs.items())
            )
            lines.append(f"  {instant.time * 1e3:9.3f} ms  {instant.name:<15} {attrs}")
        if len(events) > shown:
            lines.append(f"  ... {len(events) - shown} more")
        return lines
