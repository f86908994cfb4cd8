"""Bisection cuts and shuffle reports."""

import pytest

from repro.sim import bisection_cut
from repro.sim.stats import BisectionCut, LinkStats, ShuffleReport
from repro.topology import dgx2_topology, multi_node_dgx1
from repro.topology.links import LinkSpec, LinkType
from repro.topology.nodes import gpu


def test_dgx1_min_cut_is_the_board_split(dgx1):
    cut = bisection_cut(dgx1)
    assert set(cut.side_a) in ({0, 1, 2, 3}, {4, 5, 6, 7})
    assert cut.capacity_ab == pytest.approx(175.6e9, rel=0.01)
    assert cut.capacity_ba == pytest.approx(175.6e9, rel=0.01)


def test_crossing_links_are_cross_board(dgx1):
    cut = bisection_cut(dgx1)
    by_id = {link.link_id: link for link in dgx1.links}
    for link_id in cut.crossing_ab:
        link = by_id[link_id]
        if link.src.is_gpu and link.dst.is_gpu:
            sides = ({0, 1, 2, 3}, {4, 5, 6, 7})
            src_board = 0 if link.src.index in sides[0] else 1
            dst_board = 0 if link.dst.index in sides[0] else 1
            assert src_board != dst_board


def test_cut_subset(dgx1):
    cut = bisection_cut(dgx1, (0, 1))
    assert cut.side_a == (0,) and cut.side_b == (1,)


def test_cut_needs_two_gpus(dgx1):
    with pytest.raises(ValueError):
        bisection_cut(dgx1, (5,))


@pytest.mark.parametrize("count", [3, 5, 7])
def test_cut_odd_gpu_counts(dgx1, count):
    """Odd subsets split floor/ceil and still find a positive cut."""
    ids = tuple(dgx1.gpu_ids[:count])
    cut = bisection_cut(dgx1, ids)
    assert len(cut.side_a) == count // 2
    assert len(cut.side_b) == count - count // 2
    assert set(cut.side_a) | set(cut.side_b) == set(ids)
    assert not set(cut.side_a) & set(cut.side_b)
    assert cut.capacity_ab > 0 and cut.capacity_ba > 0
    assert cut.crossing_ab and cut.crossing_ba


def test_cut_dgx2_is_balanced_and_symmetric():
    machine = dgx2_topology()
    cut = bisection_cut(machine)
    assert len(cut.side_a) == len(cut.side_b) == 8
    # NVSwitch fabric: both directions see the same capacity.
    assert cut.capacity_ab == pytest.approx(cut.capacity_ba)
    assert cut.capacity_ab > 0
    assert cut.crossing_ab and cut.crossing_ba


def test_cut_multinode_crosses_the_interconnect():
    machine = multi_node_dgx1(2)
    cut = bisection_cut(machine)
    assert len(cut.side_a) == len(cut.side_b) == 8
    assert cut.capacity_ab > 0 and cut.capacity_ba > 0
    # The min cut of two IB-connected DGX-1s is the inter-node fabric,
    # far below a single board's NVLink bisection.
    single_board = bisection_cut(machine, tuple(machine.gpu_ids[:8]))
    assert cut.capacity_ab < single_board.capacity_ab


def test_link_stats_utilization():
    spec = LinkSpec(0, gpu(0), gpu(1), LinkType.NVLINK)
    stats = LinkStats(spec=spec, bytes_sent=100, busy_time=0.5, transfers=3)
    assert stats.utilization(1.0) == pytest.approx(0.5)
    assert stats.utilization(0.25) == 1.0  # clamped
    assert stats.utilization(0.0) == 0.0


def test_link_stats_degenerate_elapsed():
    """Zero or negative horizons must not divide: utilization is 0."""
    spec = LinkSpec(0, gpu(0), gpu(1), LinkType.NVLINK)
    stats = LinkStats(spec=spec, bytes_sent=100, busy_time=0.5, transfers=3)
    for elapsed in (0.0, -1.0, -0.001):
        assert stats.utilization(elapsed) == 0.0


def test_link_stats_idle_link():
    spec = LinkSpec(0, gpu(0), gpu(1), LinkType.NVLINK)
    stats = LinkStats(spec=spec, bytes_sent=0, busy_time=0.0, transfers=0)
    assert stats.utilization(1.0) == 0.0


def _report_with_cut(link_bytes: dict[int, int], elapsed: float) -> ShuffleReport:
    cut = BisectionCut(
        side_a=(0,),
        side_b=(1,),
        capacity_ab=100.0,
        capacity_ba=200.0,
        crossing_ab=(1,),
        crossing_ba=(2,),
    )
    link_stats = {
        link_id: LinkStats(
            spec=LinkSpec(link_id, gpu(0), gpu(1), LinkType.NVLINK),
            bytes_sent=nbytes,
            busy_time=0.0,
            transfers=1,
        )
        for link_id, nbytes in link_bytes.items()
    }
    return ShuffleReport(
        policy_name="test",
        num_gpus=2,
        elapsed=elapsed,
        payload_bytes=sum(link_bytes.values()),
        delivered_bytes=sum(link_bytes.values()),
        wire_bytes=sum(link_bytes.values()),
        packets_delivered=1,
        hop_count_total=1,
        link_stats=link_stats,
        cut=cut,
        buffer_sync_count=0,
        board_broadcast_count=0,
    )


def test_bisection_utilization_per_direction():
    # Link 1 crosses a->b (capacity 100), link 2 crosses b->a (200);
    # link 3 does not cross at all and must not count.
    report = _report_with_cut({1: 50, 2: 100, 3: 999}, elapsed=1.0)
    assert report.bisection_utilization_ab == pytest.approx(0.5)
    assert report.bisection_utilization_ba == pytest.approx(0.5)
    # Combined metric pools both directions over the total capacity.
    assert report.bisection_utilization == pytest.approx(150 / 300)


def test_bisection_utilization_direction_asymmetry():
    report = _report_with_cut({1: 90, 2: 20}, elapsed=1.0)
    assert report.bisection_utilization_ab == pytest.approx(0.9)
    assert report.bisection_utilization_ba == pytest.approx(0.1)


def test_bisection_utilization_clamps_and_degenerates():
    saturated = _report_with_cut({1: 1000, 2: 1000}, elapsed=1.0)
    assert saturated.bisection_utilization_ab == 1.0
    assert saturated.bisection_utilization_ba == 1.0
    zero = _report_with_cut({1: 50}, elapsed=0.0)
    assert zero.bisection_utilization_ab == 0.0
    assert zero.bisection_utilization_ba == 0.0
