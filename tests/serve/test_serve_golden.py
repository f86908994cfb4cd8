"""Golden digests of served batches, and late duplicates.

Each golden case serves a fixed batch and hashes what it reports: the
``ServeReport.to_dict()`` payload plus, for every completed query, its
shuffle report's own fields (``QUERY_REPORT_FIELDS``), its modelled
``join_time`` and its phase breakdown.  Where and when the serving
layer does its host-side work may change; none of these values may.

The late-duplicate query pins why a served query's shuffle report is
built at the drain, not when its last owed byte lands; the late-crash
query pins why its join waits for the drain too when one of its GPUs
crashed but is not yet declared dead at delivery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from helpers import solo_join
from test_scheduler import QUERY_REPORT_FIELDS

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.chaos import run_chaos
from repro.routing import AdaptiveArmPolicy
from repro.serve import QueryRequest, QueryScheduler, synthetic_requests

#: Four dgx1 GPUs; every pair among them has an NVLink.
QUERY_GPUS = (0, 1, 2, 3)

#: Duplicates every packet on every NVLink among the query's GPUs for
#: the whole run.  With verification off (the serve default) the
#: duplicates are delivered, and some land after the last owed byte.
DUP_EVERYTHING = FaultPlan(
    name="dup-everything",
    seed=0,
    events=tuple(
        FaultEvent(
            kind=FaultKind.PACKET_DUP,
            at=0.0,
            src=src,
            dst=dst,
            duration=1.0,
            magnitude=1.0,
        )
        for index, src in enumerate(QUERY_GPUS)
        for dst in QUERY_GPUS[index + 1:]
    ),
)


def serve_healthy_batch(machine):
    """12 healthy 4-GPU 2 Ki-tuple queries, 4 in flight, fair links."""
    return QueryScheduler(
        machine,
        synthetic_requests(12, gpus=4, tuples=2048),
        policy_factory=AdaptiveArmPolicy,
        max_in_flight=4,
        arbitration="fair",
    ).run()


#: Blacks out the gpu2<->gpu3 NVLinks from 5 to 10 us, while the
#: arbiters on them still have requests waiting and owners still
#: submit: a link arbiter loses a request both at submission on the
#: dead port and when its turn comes with the link down.
BLACKOUT_2_3 = FaultPlan(
    name="blackout-2-3",
    seed=0,
    events=(
        FaultEvent(
            kind=FaultKind.LINK_BLACKOUT, at=5e-6, src=2, dst=3, duration=5e-6
        ),
    ),
)


def serve_blackout_batch(machine):
    """4 fair-arbitrated 4-GPU 1 Ki-tuple queries under a link blackout."""
    return QueryScheduler(
        machine,
        synthetic_requests(4, gpus=4, tuples=1024),
        policy_factory=AdaptiveArmPolicy,
        max_in_flight=4,
        arbitration="fair",
        faults=BLACKOUT_2_3,
    ).run()


def serve_crash_batch(machine):
    """The CI ``chaos --serve --preset gpu-crash --gpus 4
    --real-tuples 4K --queries 12`` batch (CLI seed 42)."""
    report = run_chaos(
        machine,
        synthetic_requests(12, gpus=4, tuples=4096, seed=42),
        "gpu-crash",
        seed=42,
        strict=False,
    )
    return report.serve


def serve_late_duplicates(machine):
    """One query whose every packet is duplicated, unverified."""
    return QueryScheduler(
        machine,
        [QueryRequest(name="only", gpus=4, tuples=2048)],
        policy_factory=AdaptiveArmPolicy,
        faults=DUP_EVERYTHING,
    ).run()


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


def serve_digest(report) -> str:
    """sha256 over the report and each completed query's own results."""
    results = {}
    for outcome in report.outcomes:
        if outcome.status != "completed":
            continue
        result = outcome.result
        shuffle = result.shuffle_report
        results[outcome.name] = {
            "shuffle": (
                None
                if shuffle is None
                else {
                    name: dataclasses.asdict(value)
                    if dataclasses.is_dataclass(value)
                    else value
                    for name in QUERY_REPORT_FIELDS
                    for value in (getattr(shuffle, name),)
                }
            ),
            "join_time": result.total_time,
            "breakdown": result.breakdown.as_dict(),
        }
    payload = {"report": report.to_dict(), "results": results}
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    "healthy-12q": "150a078223c55e1fcd54299ff2b21642c8698238dc7bbfa90d49b01fa71189ee",
    "gpu-crash-12q": "013577f2bec2549d75b95bd7e38e476eb17b72d9be681446a49ae7490597e625",
    "fair-blackout-4q": "e5af5f61ba0324092edb19c9a0feab01be75bd09100ccc2436f4cf9d71eafbcf",
    "late-duplicates": "bda443db0a5ccecf7d36eaea763f91ea73a647c0ee922d6e1f49b7abeaa8f3d8",
}

BATCHES = {
    "healthy-12q": serve_healthy_batch,
    "gpu-crash-12q": serve_crash_batch,
    "fair-blackout-4q": serve_blackout_batch,
    "late-duplicates": serve_late_duplicates,
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_served_outcomes_match_golden(dgx1, case):
    report = BATCHES[case](dgx1)
    assert serve_digest(report) == GOLDEN[case]


def test_late_duplicates_report_equals_solo(dgx1):
    """Unverified duplicates keep landing after the last owed byte (a
    relay can duplicate a duplicate again on its next hop) and stretch
    the shuffle; the served report must count them as the solo one
    does, which it can only do once the engine has drained."""
    report = serve_late_duplicates(dgx1)
    outcome = report.outcome("only")
    reference = solo_join(
        dgx1, QueryRequest(name="only", gpus=4, tuples=2048),
        faults=DUP_EVERYTHING,
    )
    served, solo = outcome.result.shuffle_report, reference.shuffle_report
    # Guard: the plan must leave duplicates in flight past delivery, or
    # nothing here tells a drain-time report from a delivery-time one.
    assert solo.integrity.dup_delivered > 0
    assert outcome.finished_at < solo.elapsed
    assert outcome.join_time == reference.total_time
    for name in QUERY_REPORT_FIELDS:
        assert getattr(served, name) == getattr(solo, name), name
    assert outcome.integrity == solo.integrity


def test_crash_declared_after_delivery_equals_solo(dgx1):
    """gpu0 crashes once its own sends have landed, while the other
    sources still send: its query is delivered before the crash is
    declared, and the declaration, still scheduled, re-owns gpu0's
    partitions.  The served join must run without gpu0, as the solo
    one does."""
    request = QueryRequest(name="only", gpus=4, tuples=2048)
    healthy = solo_join(dgx1, request).shuffle_report.elapsed
    crash_at = 0.8 * healthy
    plan = FaultPlan(
        name="late-crash",
        seed=0,
        events=(FaultEvent(kind=FaultKind.GPU_CRASH, at=crash_at, gpu=0),),
    )
    report = QueryScheduler(
        dgx1, [request], policy_factory=AdaptiveArmPolicy, faults=plan
    ).run()
    outcome = report.outcome("only")
    reference = solo_join(dgx1, request, faults=plan)
    # Guard: delivery must come before the declaration, or the pass at
    # delivery already sees gpu0 dead and nothing here is pinned.
    assert reference.recovery.dead_gpus == (0,)
    declared_at = crash_at + reference.recovery.detection_latency[0]
    assert outcome.finished_at < declared_at
    assert outcome.status == "completed"
    assert outcome.crashed_gpus == (0,)
    assert outcome.match_digest == reference.match_digest
    assert outcome.matches == reference.matches_real
    assert outcome.join_time == reference.total_time
    assert outcome.result.per_gpu_matches == reference.per_gpu_matches
    assert outcome.result.recovery == reference.recovery
    served, solo = outcome.result.shuffle_report, reference.shuffle_report
    for name in QUERY_REPORT_FIELDS:
        assert getattr(served, name) == getattr(solo, name), name
