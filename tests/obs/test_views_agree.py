"""Every view of link activity tells the same story.

Link lanes (spans), per-link metrics, ``LinkStats``, the timeline
sampler, the NDJSON stream and the conformance probe all see link and
packet activity through one recorder seam.  The cross-view test checks
that they agree with each other on one fully instrumented join; the
golden tests pin each view's exact content on eight observed runs,
three of them faulted with packet retries, host fallbacks, integrity
repairs and crash detection, so a refactor of the seam cannot change
what any view reports.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from helpers import make_workload
from repro.bench.regression import skewed_flows
from repro.core.mgjoin import MGJoin
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.chaos import run_chaos
from repro.obs import SIM, Observer
from repro.obs.analyze import LinkTimelineSampler, ObservedRun, audit_decisions
from repro.obs.analyze.report import ascii_heatmap, heatmap_csv
from repro.obs.stream import TelemetryStream
from repro.routing import (
    AdaptiveArmPolicy,
    BandwidthPolicy,
    CentralizedPolicy,
    DirectPolicy,
)
from repro.serve import QueryScheduler, synthetic_requests
from repro.sim import Fabric, FlowMatrix, ShuffleGroup, ShuffleSimulator
from repro.sim.recorder import Recorder

MB = 1024 * 1024


class ViewedRun:
    """One run's observer, optional sampler and collected stream events.

    ``observed`` is the :class:`ObservedRun` of a sampled, probed run;
    without one the run has ``observer`` (a new :class:`Observer` by
    default) only.
    """

    def __init__(
        self, observed: ObservedRun | None = None, *, stream=False, observer=None
    ):
        self.observed = observed
        if observed is not None:
            observer = observed.observer
        self.observer = Observer() if observer is None else observer
        self.sampler = None if observed is None else observed.sampler
        self.events: list[dict] = []
        if stream:
            self.observer.stream = TelemetryStream(None)
            self.observer.stream.subscribe(self.events.append)
        self.result = None

    def lanes(self) -> list:
        return [
            (
                span.span_id,
                span.name,
                span.start,
                span.end,
                span.track,
                span.clock,
                span.parent_id,
                span.attrs,
            )
            for span in self.observer.spans.spans
            if span.category == "link"
        ]

    def sim_events(self) -> list:
        """Every sim-clock instant, then every sim-clock span that is
        not a link transfer (fault windows, detection, decisions)."""
        instants = [
            (inst.name, inst.time, inst.track, inst.category, inst.attrs)
            for inst in self.observer.spans.instants
            if inst.clock == SIM
        ]
        spans = [
            (
                span.span_id,
                span.name,
                span.start,
                span.end,
                span.track,
                span.category,
                span.parent_id,
                span.attrs,
            )
            for span in self.observer.spans.spans
            if span.clock == SIM and span.category != "link"
        ]
        return [instants, spans]

    def stream_events(self) -> list[dict]:
        """Stream events with their wall-clock timestamps dropped."""
        return [
            {key: value for key, value in event.items() if key != "t"}
            if event["clock"] == "wall"
            else event
            for event in self.events
        ]

    def digests(self) -> dict[str, str]:
        views = {
            "metrics": self.observer.metrics.to_json(),
            "lanes": json.dumps(self.lanes()),
            "stream": json.dumps(self.stream_events(), sort_keys=True),
            "events": json.dumps(self.sim_events()),
        }
        if self.sampler is not None:
            timeline = self.sampler.timeline()
            views["heatmap"] = ascii_heatmap(timeline) + heatmap_csv(timeline)
        return {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in views.items()
        }


def join_workload(**kwargs):
    return make_workload(num_gpus=8, real=4096, logical=1 << 25, **kwargs)


def sampled_join(machine) -> ViewedRun:
    """Observed, sampled, streamed, conformance-probed join."""
    run = ViewedRun(ObservedRun(conformance=True), stream=True)
    run.result = MGJoin(machine, **run.observed.wiring).run(join_workload())
    return run


def plain_join(machine) -> ViewedRun:
    run = ViewedRun()
    run.result = MGJoin(machine, observer=run.observer).run(
        join_workload(key_zipf=1.0, seed=7)
    )
    return run


def blackout_chaos(machine) -> ViewedRun:
    run = ViewedRun(stream=True)
    run.result = run_chaos(
        machine, join_workload(), "link-blackout", observer=run.observer
    )
    return run


def skewed_shuffle(machine) -> ViewedRun:
    run = ViewedRun(ObservedRun(conformance=True))
    gpu_ids = tuple(machine.gpu_ids)[:8]
    run.result = ShuffleSimulator(machine, gpu_ids, **run.observed.wiring).run(
        skewed_flows(gpu_ids, hot_bytes=24 * MB, base_bytes=4 * MB),
        AdaptiveArmPolicy(),
    )
    return run


def served_queries(machine, observer=None) -> ViewedRun:
    run = ViewedRun(stream=True, observer=observer)
    run.result = QueryScheduler(
        machine,
        synthetic_requests(4, gpus=4, tuples=1024),
        policy_factory=AdaptiveArmPolicy,
        max_in_flight=2,
        arbitration="fair",
        observer=run.observer,
    ).run()
    return run


def crash_chaos(machine) -> ViewedRun:
    run = ViewedRun(stream=True)
    run.result = run_chaos(
        machine, join_workload(), "gpu-crash", observer=run.observer
    )
    return run


def corrupt_chaos(machine) -> ViewedRun:
    run = ViewedRun(stream=True)
    run.result = run_chaos(
        machine, join_workload(), "payload-corrupt", observer=run.observer
    )
    return run


def served_crash(machine) -> ViewedRun:
    """Twelve queries in flight while one GPU crashes."""
    run = ViewedRun(stream=True)
    run.result = run_chaos(
        machine,
        synthetic_requests(12, gpus=4, tuples=4096),
        "gpu-crash",
        observer=run.observer,
    )
    return run


RUNS = {
    "sampled-join": sampled_join,
    "plain-join": plain_join,
    "blackout-chaos": blackout_chaos,
    "skewed-shuffle": skewed_shuffle,
    "served-queries": served_queries,
    "crash-chaos": crash_chaos,
    "corrupt-chaos": corrupt_chaos,
    "served-crash": served_crash,
}

#: sha256 of each view, recorded before link activity moved onto the
#: recorder seam; the ``events`` view and the three faulted runs were
#: recorded before the recovery, integrity and fault events moved onto
#: it.  A mismatch means a view's content changed.
GOLDEN: dict[str, dict[str, str]] = {
    "sampled-join": {
        "metrics": (
            "bc3e17afa754ea1cd32f510e300903d4"
            "69c2010c4a0dac73dbee27bef3e1ea7c"
        ),
        "lanes": (
            "405ad3f609180c426586a51683475690"
            "4a0330948aac5d5c46e1bf8853bd082a"
        ),
        "stream": (
            "26628a50cc4219e5cca1f625297237a3"
            "b8a5f656604103f46e6763f18351122a"
        ),
        "events": (
            "63e803fc160899f9443a47182c84cd7c"
            "b1a46dd2918ce1e0060faac231a8ef05"
        ),
        "heatmap": (
            "3ca4a6cde00ea7b36149824fc7618235"
            "2c31846d857db650d047867682a7ad4d"
        ),
    },
    "plain-join": {
        "metrics": (
            "7ea03ea309fae8346311679bae1f8a9c"
            "f627a053ad6d54bf5f8cd86af3919faa"
        ),
        "lanes": (
            "ce9ac896c829f78bd9e4a885fa2ec97a"
            "c631a31cc4231a9d4042987d78dc09fc"
        ),
        "stream": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5"
            "ed12ab4d8e11ba873c2f11161202b945"
        ),
        "events": (
            "3077d16f87322dc5e04a970dad27fe7c"
            "d635cd4135d496938c732e0e9d5ec0b1"
        ),
    },
    "blackout-chaos": {
        "metrics": (
            "62ebb4b390690b9d78bae497a0e04c95"
            "d02fc55aa68ed414ade8ba50d3e84975"
        ),
        "lanes": (
            "9bf2acee513df954eb94f1a7aca858a0"
            "66567f28bf0b9b7207833d05a1195397"
        ),
        "stream": (
            "9e7a840edcb30f62dde2f704a2ce1cff"
            "5e1fb65b86a02535577094ad54738080"
        ),
        "events": (
            "aaa82307f58dfa163957fff791720063"
            "3ab150916a9942b3cb5c57fbf61ce1d5"
        ),
    },
    "skewed-shuffle": {
        "metrics": (
            "08c06c25fd901bad970a587909de183d"
            "cc70ff9278f85b130b94cea243c1bcf8"
        ),
        "lanes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5"
            "ed12ab4d8e11ba873c2f11161202b945"
        ),
        "stream": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5"
            "ed12ab4d8e11ba873c2f11161202b945"
        ),
        "events": (
            "b21cf51476d7372df266bc61c18c3658"
            "e6db54490531c43e9776b8beeac24fe1"
        ),
        "heatmap": (
            "05e37f58f8809e5ef0b60c5b063291c2"
            "80a5e56446facb7b853dd5b37fc9c814"
        ),
    },
    "served-queries": {
        "metrics": (
            "86ae3beb0c6895c0a54a38888d042bf1"
            "b886309d775cc6a827f87df29c425c3b"
        ),
        "lanes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5"
            "ed12ab4d8e11ba873c2f11161202b945"
        ),
        "stream": (
            "66a267602b1c4ca792721b0539f67160"
            "5845092b50b47253473b76042b5c483c"
        ),
        "events": (
            "c0b37784141d96346a068a74569ee125"
            "753c2c531f5285071fdf3be2ee9c1b82"
        ),
    },
    "crash-chaos": {
        "metrics": (
            "2a2fafab810925ea0a12cf6f7d900046"
            "ea2be064e4fb7bc61f02d2d9cac77c54"
        ),
        "lanes": (
            "874fa00745415e0c82b59469668d7586"
            "85e3548bb86c70621292a3c71374d124"
        ),
        "stream": (
            "05cb63913ee3dd1983e20497ec7ec00c"
            "2b1508ab8e3a66254e91ce1d60ac0ea4"
        ),
        "events": (
            "f9d8c4ddaca88ab7646f6724c4fa4d0a"
            "24ce1113a46c909076f6c2d8e9a1a839"
        ),
    },
    "corrupt-chaos": {
        "metrics": (
            "776b7574c080f951381ad83fd563b924"
            "ed27ee5e69dda5d327f0ecc63f9b142d"
        ),
        "lanes": (
            "8a687d5eb1215b14f43418c3b39f6d63"
            "e96fe51548e48cc90d52f737aeaecd4d"
        ),
        "stream": (
            "375ac0103ea84d1ef1209e2fd34ee8e3"
            "e376bbc5267f6253b81a2a62b917d5bf"
        ),
        "events": (
            "733e25b6d6c900e9376211777ab3adf8"
            "d229bc9f927e0b22e1ba010cb6db8cf6"
        ),
    },
    "served-crash": {
        "metrics": (
            "3811752c7bcfc0f3172f53536ba275c7"
            "a61bb33e4b152fac6789f98d66925704"
        ),
        "lanes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5"
            "ed12ab4d8e11ba873c2f11161202b945"
        ),
        "stream": (
            "0134b58dc4c72ae3ce926c42d608cc4e"
            "7331d97ab2e38455bac5d1aea4dc5437"
        ),
        "events": (
            "8fdcf051b0729df5128079bb4cf2ba7b"
            "9aced140ddda9672e68aafe98c8ff0e2"
        ),
    },
}


@pytest.fixture(scope="module")
def observed(dgx1):
    """Each run of :data:`RUNS`, simulated once on first use."""
    cache: dict[str, ViewedRun] = {}

    def get(name: str) -> ViewedRun:
        if name not in cache:
            cache[name] = RUNS[name](dgx1)
        return cache[name]

    return get


@pytest.mark.parametrize("name", list(RUNS))
def test_views_match_golden(observed, name):
    assert observed(name).digests() == GOLDEN[name]


def test_link_views_agree(observed):
    run = observed("sampled-join")
    report = run.result.shuffle_report
    metrics = run.observer.metrics
    sampler = run.sampler
    lane_bytes: dict[str, int] = {}
    lane_count: dict[str, int] = {}
    lane_busy: dict[str, float] = {}
    for span in run.observer.spans.find("transfer", category="link"):
        lane_bytes[span.track] = lane_bytes.get(span.track, 0) + span.attrs["bytes"]
        lane_count[span.track] = lane_count.get(span.track, 0) + 1
        lane_busy[span.track] = lane_busy.get(span.track, 0.0) + span.duration
    assert sum(lane_bytes.values()) == report.wire_bytes > 0
    horizon = max(span.end for span in run.observer.spans.find(category="link"))
    assert horizon == pytest.approx(report.elapsed, rel=0.05)
    active = set()
    for stats in report.link_stats.values():
        label = str(stats.spec)
        samples = sampler.transfers.get(stats.spec.link_id, ())
        sampled_bytes = sum(sample.nbytes for sample in samples)
        assert (
            lane_bytes.get(label, 0)
            == metrics.value("link.bytes", link=label)
            == stats.bytes_sent
            == sampled_bytes
        ), label
        assert (
            lane_count.get(label, 0)
            == metrics.value("link.transfers", link=label)
            == stats.transfers
            == len(samples)
        ), label
        assert lane_busy.get(label, 0.0) == pytest.approx(stats.busy_time)
        if stats.transfers:
            active.add(label)
    assert set(lane_bytes) == active
    assert metrics.value("board.broadcasts") == metrics.value(
        "shuffle.board_broadcasts"
    ) > 0
    assert metrics.value("board.suppressed") > 0
    deliveries = metrics.histogram("shuffle.flow_latency_seconds").count
    assert len(sampler.deliveries) == deliveries > 0
    assert run.observer.conformance.count == deliveries


def test_link_events_fire_only_on_transitions(dgx1):
    """Overlapping blackouts on one link pair: the inner blackout finds
    the links already down and its late restore finds them already up,
    so each direction reports exactly one ``link.down`` and one
    ``link.up``."""
    gpu_ids = (0, 1, 2, 3)
    flows = FlowMatrix.all_to_all(gpu_ids, 8 * MB)
    healthy = ShuffleSimulator(dgx1, gpu_ids).run(flows, AdaptiveArmPolicy())
    horizon = healthy.elapsed
    plan = FaultPlan(
        name="nested-blackouts",
        events=(
            FaultEvent(
                kind=FaultKind.LINK_BLACKOUT, at=0.1 * horizon, src=0, dst=1,
                duration=0.2 * horizon,
            ),
            FaultEvent(
                kind=FaultKind.LINK_BLACKOUT, at=0.15 * horizon, src=0, dst=1,
                duration=0.5 * horizon,
            ),
        ),
    )
    run = ViewedRun(stream=True)
    ShuffleSimulator(
        dgx1, gpu_ids, observer=run.observer, faults=plan
    ).run(flows, AdaptiveArmPolicy())
    transitions = [
        (event["type"], event["link"], event["t"])
        for event in run.events
        if event["type"] in ("link.down", "link.up")
    ]
    downs = [t for t in transitions if t[0] == "link.down"]
    ups = [t for t in transitions if t[0] == "link.up"]
    assert len(downs) == len(ups) == 2
    assert {link for _, link, _ in downs} == {link for _, link, _ in ups}
    assert all(t == pytest.approx(0.1 * horizon) for _, _, t in downs)
    assert all(t == pytest.approx(0.3 * horizon) for _, _, t in ups)


def test_served_counters_sum_over_queries(observed):
    """One observer under a served crash batch: every recovery and
    delivery counter is the sum over the queries' own shuffle reports."""
    run = observed("served-crash")
    metrics = run.observer.metrics
    reports = [result.shuffle_report for result in run.result.runs.values()]
    assert len(reports) == 12
    retries = sum(report.packet_retries for report in reports)
    assert metrics.value("faults.retries") == retries > 0
    fallbacks = sum(report.packet_fallbacks for report in reports)
    assert metrics.value("faults.fallbacks") == fallbacks > 0
    recovered = sum(report.packets_recovered for report in reports)
    assert metrics.value("faults.packets_recovered") == recovered > 0
    declared = sum(len(report.recovery.declared_at) for report in reports)
    assert metrics.value("recovery.crashes_detected") == declared > 0
    delivered: dict[int, int] = {}
    for report in reports:
        for gpu, nbytes in report.per_gpu_delivered.items():
            delivered[gpu] = delivered.get(gpu, 0) + nbytes
    assert len(delivered) == 4 and sum(delivered.values()) > 0
    for gpu, nbytes in delivered.items():
        assert metrics.value("shuffle.delivered_bytes", gpu=gpu) == nbytes


@pytest.mark.parametrize("name", ["sampled-join", "served-queries"])
def test_decision_views_agree(observed, dgx1, name):
    """The audit, the ``arm.decision`` instants and the
    ``route.decisions`` counters count the same decisions."""
    run = observed(name)
    # A served batch has no timeline; an empty one still replays every
    # decision.
    sampler = run.sampler if run.sampler is not None else LinkTimelineSampler()
    audit = audit_decisions(dgx1, run.observer, sampler)
    instants = run.observer.spans.find_instants("arm.decision")
    counted = run.observer.metrics.total("route.decisions")
    assert audit.decisions == len(instants) == counted > 0


class DecisionLog(Recorder):
    """Overrides one hook: keeps what each decision reports."""

    def __init__(self):
        self.decisions = []

    def record_decision(self, decision):
        self.decisions.append(decision)


@pytest.mark.parametrize(
    "policy", [DirectPolicy, BandwidthPolicy, AdaptiveArmPolicy, CentralizedPolicy]
)
def test_decision_recorder_gets_the_enumerators_routes(dgx1, policy):
    log = DecisionLog()
    fabric = Fabric(dgx1, recorders=(log,))
    gpu_ids = (0, 1, 2, 3)
    group = ShuffleGroup(
        fabric, gpu_ids, FlowMatrix.all_to_all(gpu_ids, 4 * MB), policy()
    )
    group.start()
    fabric.engine.run()
    assert log.decisions
    enumerator = group.enumerator
    for decision in log.decisions:
        assert decision.policy == policy.name
        candidates = enumerator.routes(decision.src, decision.dst)
        assert len(decision.routes) == len(candidates)
        assert all(ours is theirs for ours, theirs in zip(decision.routes, candidates))
        assert any(decision.chosen is route for route in candidates)


class HookCount(Observer):
    """An observer that counts its run-level hook calls."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def record_shuffle_started(self, fabric, gpus, policy, faulted):
        self.calls["record_shuffle_started"] += 1
        super().record_shuffle_started(fabric, gpus, policy, faulted)

    def record_report(self, fabric, report):
        self.calls["record_report"] += 1
        super().record_report(fabric, report)

    def record_query(self, action, name, now, **fields):
        self.calls["record_query"] += 1
        super().record_query(action, name, now, **fields)

    def record_serve(self, report):
        self.calls["record_serve"] += 1
        super().record_serve(report)

    def record_join(self, result, joined, overlapped):
        self.calls["record_join"] += 1
        super().record_join(result, joined, overlapped)


def test_run_level_hooks_fire_once_per_result(dgx1):
    """A result reaches the observer once: one report per solo shuffle
    (the simulator builds its recorders once and reuses them), one
    serve report per scheduler run, one query hook per query event."""
    observer = HookCount()
    run = ViewedRun(stream=True, observer=observer)
    gpu_ids = (0, 1, 2, 3)
    simulator = ShuffleSimulator(dgx1, gpu_ids, observer=observer)
    for _ in range(2):
        simulator.run(FlowMatrix.all_to_all(gpu_ids, 4 * MB), DirectPolicy())
    assert observer.calls == {"record_shuffle_started": 2, "record_report": 2}
    types = [event["type"] for event in run.events]
    assert types.count("run.started") == types.count("run.finished") == 2
    assert types.count("kernel") == 2

    served = served_queries(dgx1, observer=HookCount())
    queries = [
        event for event in served.events
        if event["type"] == "query" and event["action"] != "retry"
    ]
    calls = served.observer.calls
    assert calls["record_serve"] == 1
    assert calls["record_query"] == len(queries) > 0
    assert set(calls) == {"record_serve", "record_query"}
    assert served.digests() == GOLDEN["served-queries"]
