"""Outside-in layer tracer: self time at each module's public entry points.

The benchmark edits nothing under ``src/``.  Instead, :func:`install`
replaces the public functions and methods behind the per-layer metrics
with timing wrappers:

* a module-level function is rebound in every loaded ``repro.*`` module
  that holds the original object (``execute_distribution`` lives in
  both ``core.mgjoin`` and ``serve.fabric``, for example);
* a method is replaced on its class.

Each wrapper pushes a frame on one stack, so a span's *self* time is
its duration minus the time of the spans it called.  The benchmark's
own call runs as the root span ``bench.unattributed``: whatever no
wrapper claimed lands there, and the self times of all spans sum to
the call's wall time.

Self time of ``sim.engine.self`` includes the bodies of the simulated
GPU processes that the event loop resumes; separating them needs
tracing inside the program.  Untraced benchmark children never import
this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

#: Module-level functions: (module, attribute, span).
FUNCTIONS = (
    ("repro.topology.dgx1", "dgx1_topology", "topology.build"),
    ("repro.topology.multinode", "multi_node_dgx1", "topology.build"),
    ("repro.sim.stats", "bisection_cut", "topology.bisection"),
    ("repro.workloads.generator", "generate_workload", "workloads.generate"),
    ("repro.core.histogram", "build_histograms", "core.histogram"),
    ("repro.core.assignment", "assign_partitions", "core.assignment"),
    ("repro.core.global_partition", "execute_distribution", "core.distribution"),
    ("repro.core.local_partition", "refine", "core.refine"),
    ("repro.core.probe", "probe_partitions", "core.probe"),
    ("repro.core.recovery", "canonical_match_digest", "core.digest"),
    ("repro.faults.chaos", "run_chaos", "faults.chaos"),
    ("repro.obs.analyze.regret", "audit_decisions", "obs.audit"),
)

#: Methods: (module, class, method, span).  The shuffle wiring span
#: covers both places that wire a shuffle: the solo simulator and a
#: served query's session start.
METHODS = (
    ("repro.topology.machine", "MachineTopology", "bisection_bandwidth", "topology.bisection"),
    ("repro.topology.routes", "RouteEnumerator", "routes", "topology.routes"),
    ("repro.sim.engine", "Engine", "run", "sim.engine.self"),
    ("repro.sim.linksim", "LinkChannel", "transmit", "sim.linksim.transmit"),
    ("repro.sim.linksim", "LinkStateBoard", "publish", "sim.linksim.publish"),
    ("repro.routing.adaptive", "AdaptiveArmPolicy", "choose_route", "routing.choose"),
    ("repro.sim.shuffle", "ShuffleSimulator", "run", "sim.shuffle.wiring"),
    ("repro.serve.fabric", "QuerySession", "start", "sim.shuffle.wiring"),
    ("repro.serve.fabric", "QuerySession", "__init__", "serve.session"),
    ("repro.serve.fabric", "QuerySession", "finalize", "serve.session"),
    ("repro.serve.scheduler", "QueryScheduler", "run", "serve.scheduler"),
    ("repro.core.mgjoin", "MGJoin", "run", "core.join"),
)

#: Calls counted but not timed (their time stays with the caller).
COUNTED_FUNCTIONS = (("repro.routing.adaptive", "arm_value", "routing.arm_evals"),)
COUNTED_METHODS = (
    ("repro.topology.maxflow", "FlowNetwork", "max_flow", "topology.maxflow_solves"),
)

ROOT = "bench.unattributed"

#: Every span name, root included.
SPANS = tuple(
    dict.fromkeys(
        [ROOT] + [entry[-1] for entry in FUNCTIONS] + [entry[-1] for entry in METHODS]
    )
)


class LayerTracer:
    """Accumulates per-span self time, call counts and work counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: One frame per open span: the time its child spans took.
        self._stack: list[list[float]] = []
        self._engines: list = []
        self._boards: list = []
        self._restore: list[tuple[object, str, object]] = []
        #: Wrapper of a module-level function -> the function it wraps.
        self._originals: dict[object, object] = {}

    # -- wrappers ------------------------------------------------------

    def timed(self, span: str, fn, after=None):
        """``fn`` wrapped to add its self time to ``span``."""
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_s[span] += elapsed - frame[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, counter: str, fn):
        """``fn`` wrapped to count its calls in ``counter``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, fn):
        """Run ``fn()`` as the root span and return its result."""
        return self.timed(ROOT, fn)()

    @staticmethod
    def hooked(fn, after):
        """``fn`` followed by ``after(args, result)``, with no span of its own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    # -- work counters read from results -------------------------------

    def _shuffle_done(self, args, report) -> None:
        counts = self.counts
        counts["sim.shuffle.packets"] += report.packets_delivered
        counts["sim.shuffle.hops"] += report.hop_count_total
        counts["faults.retries"] += report.packet_retries
        counts["faults.reroutes"] += report.packet_reroutes
        counts["faults.fallbacks"] += report.packet_fallbacks
        if report.recovery is not None:
            counts["faults.reshuffled_bytes"] += report.recovery.reshuffled_bytes

    def _session_done(self, args, result) -> None:
        # Hops of a served packet = its delivery plus one forward per relay.
        for node in args[0].nodes.values():
            self.counts["sim.shuffle.packets"] += node.stats.delivered_packets
            self.counts["sim.shuffle.hops"] += (
                node.stats.delivered_packets + node.stats.forwarded_packets
            )

    def _register(self, registry: list):
        def after(args, result) -> None:
            registry.append(args[0])

        return after

    # -- install / snapshot --------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_function(self, module: str, name: str, replacement_for) -> None:
        original = getattr(importlib.import_module(module), name)
        replacement = replacement_for(original)
        self._originals[replacement] = original
        for loaded in _repro_modules():
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, attr, replacement)

    def install(self) -> "LayerTracer":
        """Import every traced module and wrap its entry points.

        A module imported later that does ``from ... import f`` picks up
        the wrapper by itself; modules already loaded are rebound here.
        """
        for module, name, span in FUNCTIONS:
            self._patch_function(module, name, lambda fn, s=span: self.timed(s, fn))
        for module, name, counter in COUNTED_FUNCTIONS:
            self._patch_function(
                module, name, lambda fn, c=counter: self.counted(c, fn)
            )
        after = {
            ("ShuffleSimulator", "run"): self._shuffle_done,
            ("QuerySession", "finalize"): self._session_done,
        }
        for module, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            hook = after.get((cls_name, method))
            self._patch(cls, method, self.timed(span, getattr(cls, method), hook))
        for module, cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self.counted(counter, getattr(cls, method)))
        # Engines and boards are counted at snapshot time, not per event.
        from repro.sim.engine import Engine
        from repro.sim.linksim import LinkStateBoard

        for cls, registry in ((Engine, self._engines), (LinkStateBoard, self._boards)):
            self._patch(cls, "__init__", self.hooked(cls.__init__, self._register(registry)))
        return self

    def uninstall(self) -> None:
        """Put every original function and method back."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        # A module first imported while the tracer was installed bound
        # the wrappers by itself, so no patch recorded it.
        for loaded in _repro_modules():
            for attr, value in list(vars(loaded).items()):
                if inspect.isfunction(value) and value in self._originals:
                    setattr(loaded, attr, self._originals[value])
        self._originals.clear()

    def snapshot(self) -> dict:
        """Totals since the last snapshot, then reset."""
        counts = dict(self.counts)
        counts["sim.engine.events"] = sum(
            engine.stats["ready_dispatches"] + engine.stats["heap_dispatches"]
            for engine in self._engines
        )
        counts["sim.linksim.broadcasts"] = sum(
            board.broadcast_count for board in self._boards
        )
        spans = dict.fromkeys(SPANS + tuple(self.self_s))
        for span in spans:
            counts[f"{span}.calls"] = self.calls.get(span, 0)
        totals = {
            "self_s": {span: self.self_s.get(span, 0.0) for span in spans},
            "counts": counts,
        }
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._engines.clear()
        self._boards.clear()
        return totals


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install() -> LayerTracer:
    """A tracer wrapped around every layer entry point."""
    return LayerTracer().install()


#: Per-layer metric -> (end-to-end metric it moves, workload where it
#: dominates).  ``None`` marks the benchmark's own accounting metrics.
LAYER_MOVES: dict[str, tuple[str, str] | None] = {
    "setup.topology.build_s": ("setup_s", "shuffle-multinode"),
    "setup.topology.bisection_s": ("setup_s", "shuffle-multinode"),
    "setup.topology.maxflow_solves": ("setup_s", "shuffle-multinode"),
    "setup.workloads.generate.share": ("setup_s", "join-compute"),
    "sim.engine.self_s": ("wall_s", "join-sim"),
    "sim.engine.events": ("wall_s", "join-sim"),
    "sim.engine.us_per_event": ("wall_s", "shuffle-multinode"),
    "sim.linksim.transmit_s": ("wall_s", "join-sim"),
    "sim.linksim.transmits": ("wall_s", "join-sim"),
    "sim.linksim.publish_s": ("wall_s", "join-sim"),
    "sim.linksim.publishes": ("wall_s", "join-sim"),
    "sim.linksim.broadcast_share": ("wall_s", "shuffle-multinode"),
    "routing.choose_s": ("wall_s", "join-sim"),
    "routing.decisions": ("wall_s", "join-sim"),
    "routing.arm_evals": ("wall_s", "join-sim"),
    "topology.routes_s": ("wall_s", "shuffle-multinode"),
    "sim.shuffle.wiring_s": ("wall_s", "serve-16q"),
    "sim.shuffle.packets": ("wall_s", "join-sim"),
    "sim.shuffle.hops_per_packet": ("wall_s", "shuffle-multinode"),
    "workloads.generate.share": ("wall_s", "serve-16q"),
    "core.histogram.share": ("wall_s", "join-compute"),
    "core.assignment.share": ("wall_s", "serve-16q"),
    "core.distribution.share": ("peak_rss_mb", "join-compute"),
    "core.refine.share": ("wall_s", "join-compute"),
    "core.probe.share": ("wall_s", "join-compute"),
    "core.digest.share": ("wall_s", "serve-16q"),
    "core.join.share": ("wall_s", "join-compute"),
    "faults.chaos.share": ("wall_s", "chaos-crash"),
    "faults.retries": ("wall_s", "chaos-crash"),
    "faults.reroutes": ("wall_s", "chaos-crash"),
    "faults.fallbacks": ("wall_s", "chaos-crash"),
    "faults.reshuffled_mb": ("wall_s", "chaos-crash"),
    "serve.session.share": ("wall_s", "serve-16q"),
    "serve.scheduler.share": ("wall_s", "serve-16q"),
    "obs.audit.share": ("wall_s", "shuffle-multinode"),
    "bench.unattributed_s": None,
    "bench.trace_overhead": None,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(setup: dict, setup_wall: float, calls: list[dict],
                  call_walls: list[float], untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced totals: ``name -> (value, unit)``.

    ``setup`` is the set-up snapshot, ``calls`` one snapshot per traced
    call.  Times and counts are per call (averaged over the traced
    calls, whose counts are identical by determinism); names starting
    ``setup.`` describe the set-up.  Every span is reported both in
    seconds (``<span>_s``) and as a share of the traced call
    (``<span>.share``).
    """
    n = len(calls)
    wall = sum(call_walls) / n
    self_s = {span: sum(c["self_s"][span] for c in calls) / n for span in SPANS}
    counts: dict[str, float] = defaultdict(float)
    for snapshot in calls:
        for name, value in snapshot["counts"].items():
            counts[name] += value / n
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        metrics[f"{span}_s"] = (self_s[span], "s")
        metrics[f"{span}.share"] = (_ratio(self_s[span], wall), "ratio")
        metrics[f"setup.{span}_s"] = (setup["self_s"][span], "s")
        metrics[f"setup.{span}.share"] = (
            _ratio(setup["self_s"][span], setup_wall), "ratio"
        )
    metrics["setup.topology.maxflow_solves"] = (
        setup["counts"].get("topology.maxflow_solves", 0.0), "count"
    )
    events = counts["sim.engine.events"]
    publishes = counts["sim.linksim.publish.calls"]
    packets = counts["sim.shuffle.packets"]
    metrics.update(
        {
            "sim.engine.events": (events, "count"),
            "sim.engine.us_per_event": (
                _ratio(self_s["sim.engine.self"] * 1e6, events), "us"
            ),
            "sim.linksim.transmits": (counts["sim.linksim.transmit.calls"], "count"),
            "sim.linksim.publishes": (publishes, "count"),
            "sim.linksim.broadcast_share": (
                _ratio(counts["sim.linksim.broadcasts"], publishes), "ratio"
            ),
            "routing.decisions": (counts["routing.choose.calls"], "count"),
            "routing.arm_evals": (counts["routing.arm_evals"], "count"),
            "topology.maxflow_solves": (counts["topology.maxflow_solves"], "count"),
            "sim.shuffle.packets": (packets, "count"),
            "sim.shuffle.hops_per_packet": (
                _ratio(counts["sim.shuffle.hops"], packets), "ratio"
            ),
            "faults.retries": (counts["faults.retries"], "count"),
            "faults.reroutes": (counts["faults.reroutes"], "count"),
            "faults.fallbacks": (counts["faults.fallbacks"], "count"),
            "faults.reshuffled_mb": (
                counts["faults.reshuffled_bytes"] / (1024 * 1024), "MB"
            ),
            "bench.trace_overhead": (
                _ratio(statistics.median(call_walls), untraced_wall) - 1.0, "ratio"
            ),
        }
    )
    return metrics


def exact_counts(calls: list[dict]) -> dict[str, float]:
    """Work counters of one traced call; identical calls give identical counts."""
    return dict(sorted(calls[-1]["counts"].items()))
