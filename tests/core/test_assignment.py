"""Phase 2a: migration / selective-broadcast partition assignment."""

import numpy as np
import pytest

from repro.core import build_histograms
from repro.core.assignment import (
    BROADCAST_R,
    BROADCAST_S,
    NO_BROADCAST,
    assign_partitions,
    modulo_assignment,
    pairwise_tuple_cost,
)
from repro.core.histogram import HistogramSet

from helpers import make_workload


def hist_from_counts(r_counts, s_counts):
    """Build a HistogramSet from (G, P) matrices."""
    r = np.asarray(r_counts, dtype=np.int64)
    s = np.asarray(s_counts, dtype=np.int64)
    return HistogramSet(
        num_partitions=r.shape[1],
        r={g: r[g] for g in range(r.shape[0])},
        s={g: s[g] for g in range(s.shape[0])},
    )


class TestPairwiseCost:
    def test_diagonal_zero(self, dgx1):
        cost = pairwise_tuple_cost(dgx1, tuple(range(8)))
        assert np.all(np.diag(cost) == 0)

    def test_double_link_cheaper_without_relays(self, dgx1):
        # Restricted to direct routes, the double link (50 GB/s) to
        # GPU 3 beats the single link (25 GB/s) to GPU 1.  (With
        # relays allowed, an all-double path exists for every pair.)
        cost = pairwise_tuple_cost(dgx1, tuple(range(8)), max_intermediates=0)
        assert cost[0][3] < cost[0][1]

    def test_staged_pairs_reachable_through_relays(self, dgx1):
        """Multi-hop candidate routes make even staged pairs cheap."""
        cost = pairwise_tuple_cost(dgx1, tuple(range(8)))
        # 0->5 has no NVLink, but 0->4->5 bottlenecks at 25 GB/s,
        # much better than the 16 GB/s staged path.
        assert cost[0][5] <= 8 / 25e9 * 1.01


class TestAssignment:
    def test_uniform_data_balances_load(self, dgx1):
        workload = make_workload(num_gpus=4, real=4096)
        histograms = build_histograms(workload.r, workload.s, 256)
        assignment = assign_partitions(histograms, dgx1)
        counts = np.zeros(4)
        r, s = histograms.stacked()
        sizes = (r + s).sum(axis=0)
        for p, owners in enumerate(assignment.owners):
            for owner in owners:
                counts[owner] += sizes[p] / len(owners)
        assert counts.max() <= 1.25 * counts.min()

    def test_data_already_in_place_stays(self, dgx1):
        """A partition living wholly on one GPU is owned by that GPU."""
        r = np.zeros((2, 4), dtype=np.int64)
        s = np.zeros((2, 4), dtype=np.int64)
        r[0, 1] = 1000
        s[0, 1] = 1000
        histograms = hist_from_counts(r, s)
        # Give the other GPU some other partition so totals balance.
        assignment = assign_partitions(histograms, dgx1)
        assert assignment.owners[1] == (0,)

    def test_heavy_hitter_triggers_selective_broadcast(self, dgx1):
        """Huge R partition spread everywhere + tiny S on two GPUs:
        broadcasting S beats migrating R (§3.2's skew handling)."""
        num_gpus = 4
        r = np.full((num_gpus, 2), 1_000_000, dtype=np.int64)
        s = np.zeros((num_gpus, 2), dtype=np.int64)
        s[0, 0] = 10
        s[1, 0] = 10
        s[0, 1] = 10
        s[1, 1] = 10
        histograms = hist_from_counts(r, s)
        assignment = assign_partitions(histograms, dgx1)
        assert assignment.broadcast_side[0] == BROADCAST_S
        # Owners are the R holders: every GPU.
        assert assignment.owners[0] == tuple(range(num_gpus))

    def test_broadcast_r_symmetric_case(self, dgx1):
        r = np.zeros((4, 1), dtype=np.int64)
        s = np.full((4, 1), 1_000_000, dtype=np.int64)
        r[2, 0] = 5
        r[3, 0] = 5
        histograms = hist_from_counts(r, s)
        assignment = assign_partitions(histograms, dgx1)
        assert assignment.broadcast_side[0] == BROADCAST_R


    def test_uniform_workload_has_no_broadcasts(self, dgx1):
        workload = make_workload(num_gpus=4, real=4096)
        histograms = build_histograms(workload.r, workload.s, 256)
        assignment = assign_partitions(histograms, dgx1)
        assert assignment.num_broadcast == 0


class TestModuloAssignment:
    def test_round_robin_owners(self):
        r = np.ones((4, 8), dtype=np.int64)
        s = np.ones((4, 8), dtype=np.int64)
        assignment = modulo_assignment(hist_from_counts(r, s))
        assert [o[0] for o in assignment.owners] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert assignment.num_broadcast == 0

    def test_single_owner_map(self):
        r = np.ones((2, 4), dtype=np.int64)
        assignment = modulo_assignment(hist_from_counts(r, r))
        assert assignment.single_owner_map().tolist() == [0, 1, 0, 1]
