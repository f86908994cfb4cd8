"""Per-link bandwidth arbitration between tagged (per-query) flows."""

import random

import pytest

from repro.sim import ARBITRATION_MODES, Engine, LinkArbiter, LinkChannel
from repro.topology.links import LinkSpec, LinkType
from repro.topology.nodes import gpu

MB = 1024 * 1024


def make_link(engine, mode=None, priorities=None):
    spec = LinkSpec(0, gpu(0), gpu(1), LinkType.NVLINK)
    link = LinkChannel(engine, spec, None)
    if mode is not None:
        link.arbiter = LinkArbiter(link, mode=mode, priorities=priorities or {})
    return link


def submit_all(engine, link, labelled):
    """Submit (tag, nbytes) pairs; returns the completion log."""
    log = []
    for tag, nbytes in labelled:
        link.transmit(
            nbytes, tag=tag,
            then=lambda ok, tag=tag: log.append((tag, engine.now, ok)),
        )
    return log


def test_mode_vocabulary_is_closed():
    engine = Engine()
    link = make_link(engine)
    assert set(ARBITRATION_MODES) == {"fair", "priority"}
    with pytest.raises(ValueError, match="unknown arbitration mode"):
        LinkArbiter(link, mode="psychic")


def test_fair_interleaves_two_queries_packet_for_packet():
    engine = Engine()
    link = make_link(engine, mode="fair")
    log = submit_all(
        engine, link, [("a", MB), ("a", MB), ("b", MB), ("b", MB)]
    )
    engine.run()
    # A FIFO wire would finish a,a,b,b; the arbiter alternates.
    assert [tag for tag, _, _ in log] == ["a", "b", "a", "b"]
    service = link.service_time(MB)
    for index, (_, at, delivered) in enumerate(log, start=1):
        assert delivered is True
        assert at == pytest.approx(index * service)


def test_fair_shields_a_small_query_from_a_deep_backlog():
    engine = Engine()
    link = make_link(engine, mode="fair")
    log = submit_all(
        engine, link,
        [("bulk", MB)] * 4 + [("tiny", MB)],
    )
    engine.run()
    # The single-packet query gets the second slot, not the fifth.
    assert [tag for tag, _, _ in log][:2] == ["bulk", "tiny"]


def test_priority_preempts_at_packet_boundaries():
    engine = Engine()
    link = make_link(engine, mode="priority", priorities={"hi": 1})
    log = submit_all(
        engine, link, [("lo", MB), ("lo", MB), ("hi", MB)]
    )
    engine.run()
    # The in-flight packet is never aborted; the high-priority tag wins
    # the next boundary instead.
    assert [tag for tag, _, _ in log] == ["lo", "hi", "lo"]


def test_single_tag_is_timing_identical_to_the_legacy_path():
    """With no competition, arbitration must not change the clock."""
    sizes = [MB, 2 * MB, MB // 2]

    def finish_times(tagged):
        engine = Engine()
        link = make_link(engine, mode="fair" if tagged else None)
        log = submit_all(
            engine, link,
            [("only" if tagged else None, size) for size in sizes],
        )
        engine.run()
        return [at for _, at, _ in log]

    assert finish_times(tagged=True) == finish_times(tagged=False)


def test_waiting_requests_count_toward_queue_delay():
    """Arbiter-held requests are part of the paper's Q_i backlog."""
    engine = Engine()
    plain = make_link(engine)
    arbitrated = make_link(engine, mode="fair")
    for link, tag in ((plain, None), (arbitrated, "q")):
        link.transmit(MB, tag=tag, then=lambda ok: None)
        link.transmit(MB, tag=tag, then=lambda ok: None)
    assert arbitrated.queue_delay() == pytest.approx(plain.queue_delay())


def test_dead_link_fails_tagged_transfers_fast():
    engine = Engine()
    link = make_link(engine, mode="fair")
    link.take_down()
    log = submit_all(engine, link, [("a", MB)])
    engine.run()
    tag, at, delivered = log[0]
    assert delivered is False
    assert at == pytest.approx(link.spec.latency)
    assert link.transfers_lost == 1


def test_outage_mid_wait_does_not_stall_other_queries():
    """A request that dies waiting its turn surfaces as a lost packet;
    requests behind it keep flowing once the link is back."""
    engine = Engine()
    link = make_link(engine, mode="fair")
    log = submit_all(engine, link, [("a", MB), ("b", MB)])
    service = link.service_time(MB)
    # Outage window covers the first completion boundary only.
    engine.schedule(service * 0.5, link.take_down)
    engine.schedule(service * 1.5, link.bring_up)
    engine.run()
    outcomes = {tag: delivered for tag, _, delivered in log}
    assert outcomes["a"] is False  # died mid-flight
    assert len(log) == 2  # b still reached a terminal event


class ListFormArbiter(LinkArbiter):
    """The arbiter with its old pick: build the list of every waiting
    tag, narrow it to the top priority, take the first."""

    def _pick_tag(self):
        eligible = [tag for tag in self._rotation if self._waiting[tag]]
        if not eligible:
            return None
        if self.mode == "priority":
            top = max(self.priorities.get(tag, 0) for tag in eligible)
            eligible = [
                tag for tag in eligible if self.priorities.get(tag, 0) == top
            ]
        tag = eligible[0]
        self._rotation.remove(tag)
        self._rotation.append(tag)
        return tag


def random_arbitration(arbiter_cls, mode, seed):
    """Seeded submits from six tags over 8 ms, some onto an idle wire,
    most into a backlog; returns every pick with the rotation after it,
    and the completion log."""
    rng = random.Random(seed)
    tags = [f"q{index}" for index in range(6)]
    priorities = {tag: rng.randrange(3) for tag in tags}
    engine = Engine()
    link = make_link(engine)
    arbiter = link.arbiter = arbiter_cls(link, mode=mode, priorities=priorities)
    picks = []
    pick = arbiter._pick_tag

    def recorded_pick():
        tag = pick()
        picks.append((engine.now, tag, tuple(arbiter._rotation)))
        return tag

    arbiter._pick_tag = recorded_pick
    log = []

    def send(tag, nbytes):
        link.transmit(
            nbytes, tag=tag, then=lambda ok: log.append((tag, engine.now, ok))
        )

    for _ in range(300):
        engine.schedule(
            rng.uniform(0.0, 8e-3),
            send,
            rng.choice(tags),
            rng.choice((64 * 1024, MB // 2, 2 * MB)),
        )
    engine.run()
    return picks, log


@pytest.mark.parametrize("mode", ARBITRATION_MODES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pick_equals_the_list_form(mode, seed):
    picks, log = random_arbitration(LinkArbiter, mode, seed)
    assert len(log) == 300
    # The workload must exercise both idle and contended picks.
    assert any(tag is None for _, tag, _ in picks)
    assert len({rotation for _, _, rotation in picks}) > 6
    assert (picks, log) == random_arbitration(ListFormArbiter, mode, seed)
