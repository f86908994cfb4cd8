"""A served batch holds the join data of its in-flight queries only.

A delivered query's functional pass runs as soon as its shuffle lands,
and the session then drops its relations, histograms and assignment,
so a batch's memory follows ``max_in_flight``, not its length.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

from repro.routing import AdaptiveArmPolicy
from repro.serve import QueryRequest, QueryScheduler, synthetic_requests
from repro.serve.fabric import QuerySession


def test_delivered_query_data_is_freed_before_the_next_admission(
    dgx1, monkeypatch
):
    """One query at a time: when the scheduler admits the next one,
    every earlier query's workload, histograms and assignment are gone."""
    held: list[tuple[str, weakref.ref]] = []
    checked = []
    start = QuerySession.start

    def recording_start(session):
        plan = session.plan
        for name in ("workload", "histograms", "assignment"):
            held.append((f"{session.name}.{name}", weakref.ref(getattr(plan, name))))
        start(session)

    admit = QueryScheduler._admit

    def checking_admit(scheduler, entry):
        gc.collect()
        checked.append(entry.request.name)
        alive = [name for name, ref in held if ref() is not None]
        assert alive == [], f"still reachable at {entry.request.name}: {alive}"
        admit(scheduler, entry)

    monkeypatch.setattr(QuerySession, "start", recording_start)
    monkeypatch.setattr(QueryScheduler, "_admit", checking_admit)
    report = QueryScheduler(
        dgx1,
        synthetic_requests(4, gpus=4, tuples=2048),
        policy_factory=AdaptiveArmPolicy,
        max_in_flight=1,
    ).run()
    assert report.completed == 4
    assert checked == ["q000", "q001", "q002", "q003"]
    assert len(held) == 12


def test_failed_query_drops_its_data_when_it_ends(dgx1):
    request = QueryRequest(name="late", gpus=4, tuples=2048, deadline=1e-9)
    scheduler = QueryScheduler(dgx1, [request], policy_factory=AdaptiveArmPolicy)
    assert scheduler.run().outcome("late").status == "deadline-expired"
    session = scheduler._entries["late"].session
    assert session.plan is None and session.joined is None


def traced_peak(machine, queries: int) -> int:
    requests = synthetic_requests(
        queries, gpus=4, tuples=2048, arrival_spacing=2e-3
    )
    gc.collect()
    tracemalloc.start()
    try:
        report = QueryScheduler(
            machine, requests, policy_factory=AdaptiveArmPolicy
        ).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.completed == queries
    return peak


def test_batch_peak_follows_in_flight_not_batch_length(dgx1):
    """Queries 2 ms apart never overlap: 12 of them peak about where 3
    do.  What still grows is each finished query's flow group, kept
    for its shuffle report at the drain."""
    traced_peak(dgx1, 1)  # one-off caches (routes, costs) out of the way
    three = traced_peak(dgx1, 3)
    twelve = traced_peak(dgx1, 12)
    assert twelve <= 1.25 * three, (three, twelve)
