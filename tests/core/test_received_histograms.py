"""Received partition histograms against the tuples actually delivered.

``received_histograms`` reads each GPU's post-distribution partition
counts off the source histograms, so the local-pass planner never
re-histograms the received tuples.  These tests hold it to
``np.bincount(partition_of(keys))`` of ``execute_distribution``'s output,
for both join sides, on every distribution-equivalence case (plain,
skewed, both broadcast kinds, survivor-only and single-GPU) and on an
8-GPU zipf-1.5 workload with hundreds of broadcast partitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import BROADCAST_R, BROADCAST_S, assign_partitions
from repro.core.config import MGJoinConfig
from repro.core.global_partition import execute_distribution, received_histograms
from repro.core.histogram import build_histograms, partition_of
from repro.topology import dgx1_topology

from helpers import make_workload
from test_distribution_equivalence import CASES, reference_distribution


@pytest.fixture(scope="module")
def machine():
    return dgx1_topology()


def _assert_counts_delivered(histograms, assignment, data):
    received = received_histograms(histograms, assignment)
    assert received.num_partitions == histograms.num_partitions
    assert received.gpu_ids == histograms.gpu_ids
    for side in ("r", "s"):
        delivered = getattr(data, side)
        counted = getattr(received, side)
        for gpu_id, shard in delivered.items():
            expected = np.bincount(
                partition_of(shard.keys, histograms.num_partitions),
                minlength=histograms.num_partitions,
            )
            assert np.array_equal(counted[gpu_id], expected), (side, gpu_id)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_delivered_tuples(machine, case):
    r, s, histograms, assignment = CASES[case](machine)
    data = execute_distribution(r, s, histograms, assignment)
    _assert_counts_delivered(histograms, assignment, data)


@pytest.fixture(scope="module")
def broadcast_heavy(machine):
    """8 GPUs, zipf 1.5, 16 Ki tuples per GPU, the default partition count."""
    workload = make_workload(num_gpus=8, real=16 * 1024, key_zipf=1.5, seed=42)
    histograms = build_histograms(
        workload.r, workload.s, MGJoinConfig().global_partitions
    )
    return workload.r, workload.s, histograms, assign_partitions(histograms, machine)


def test_broadcast_heavy_workload(broadcast_heavy):
    r, s, histograms, assignment = broadcast_heavy
    assert assignment.num_broadcast >= 200
    assert {BROADCAST_R, BROADCAST_S} <= set(assignment.broadcast_side.tolist())
    data = execute_distribution(r, s, histograms, assignment)
    _assert_counts_delivered(histograms, assignment, data)


def test_broadcast_heavy_distribution_matches_mask_loop(broadcast_heavy):
    """Hundreds of broadcast slots keep the mask loop's received order."""
    r, s, histograms, assignment = broadcast_heavy
    got = execute_distribution(r, s, histograms, assignment)
    expected = reference_distribution(r, s, histograms, assignment)
    for side in ("r", "s"):
        got_side, expected_side = getattr(got, side), getattr(expected, side)
        assert list(got_side) == list(expected_side)
        for gpu_id, shard in expected_side.items():
            assert np.array_equal(got_side[gpu_id].keys, shard.keys), (side, gpu_id)
            assert np.array_equal(got_side[gpu_id].ids, shard.ids), (side, gpu_id)
