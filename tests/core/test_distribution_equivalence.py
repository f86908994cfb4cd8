"""The radix-ordered distribution scatter against the mask loop it replaced.

``execute_distribution`` orders each source shard once by owner GPU and
hands every destination one contiguous slice.  These tests keep the
per-destination boolean-mask loop as the reference and require every
GPU to receive ``==`` keys and ids, in the same order, for plain,
skewed, heavy-hitter (both broadcast kinds), survivor-only and
single-GPU assignments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import (
    BROADCAST_R,
    BROADCAST_S,
    NO_BROADCAST,
    assign_partitions,
)
from repro.core.compression import CompressionModel
from repro.core.global_partition import (
    DistributedData,
    execute_distribution,
    received_histograms,
)
from repro.core.histogram import build_histograms, partition_of
from repro.core.recovery import JoinRecoveryCoordinator
from repro.core.relation import DistributedRelation, GpuShard
from repro.topology import dgx1_topology

from helpers import make_workload

RAW = CompressionModel(enabled=False, key_bits_elided=0, id_bytes_per_tuple=4.0)
PARTITIONS = 256


def reference_distribution(r, s, histograms, assignment):
    """The per-destination boolean-mask scatter, frozen as the reference."""
    gpu_ids = histograms.gpu_ids
    position = {gpu_id: pos for pos, gpu_id in enumerate(gpu_ids)}
    owner_map = assignment.single_owner_map()
    num_partitions = histograms.num_partitions
    received_r = {g: [] for g in gpu_ids}
    received_s = {g: [] for g in gpu_ids}
    broadcast_partitions = np.nonzero(assignment.broadcast_side != NO_BROADCAST)[0]
    broadcast_set = set(int(p) for p in broadcast_partitions)
    for relation, received, moving_marker in (
        (r, received_r, BROADCAST_R),
        (s, received_s, BROADCAST_S),
    ):
        for src in gpu_ids:
            shard = relation.shard(src)
            pids = partition_of(shard.keys, num_partitions)
            dest_positions = owner_map[pids]
            for dst_pos, dst in enumerate(gpu_ids):
                mask = dest_positions == dst_pos
                if not np.any(mask):
                    continue
                received[dst].append(GpuShard(shard.keys[mask], shard.ids[mask]))
            for p in broadcast_set:
                mask = pids == p
                if not np.any(mask):
                    continue
                piece = GpuShard(shard.keys[mask], shard.ids[mask])
                owner_positions = assignment.owners[p]
                if assignment.broadcast_side[p] == moving_marker:
                    for dst_pos in owner_positions:
                        received[gpu_ids[dst_pos]].append(piece)
                else:
                    if position[src] in owner_positions:
                        received[src].append(piece)
    return DistributedData(
        r={g: GpuShard.concat(received_r[g]) for g in gpu_ids},
        s={g: GpuShard.concat(received_s[g]) for g in gpu_ids},
    )


def _relation(name, gpu_ids, counts, rng, id_base):
    """Shards whose per-partition tuple counts are ``counts[gpu, p]``."""
    shards = {}
    next_id = id_base
    for pos, gpu_id in enumerate(gpu_ids):
        pids = np.repeat(np.arange(counts.shape[1]), counts[pos])
        rng.shuffle(pids)
        high = rng.integers(0, 1 << 12, size=len(pids))
        keys = (pids + counts.shape[1] * high).astype(np.uint32)
        ids = np.arange(next_id, next_id + len(pids), dtype=np.uint32)
        next_id += len(pids)
        shards[gpu_id] = GpuShard(keys, ids)
    return DistributedRelation(name, shards)


def heavy_hitter_relations(gpu_ids, seed):
    """Huge-S/tiny-R partitions and the mirror image: both broadcast kinds."""
    rng = np.random.default_rng(seed)
    g = len(gpu_ids)
    r = rng.integers(0, 6, size=(g, PARTITIONS))
    s = rng.integers(0, 6, size=(g, PARTITIONS))
    for p in range(0, PARTITIONS, 32):
        s[:, p] = 400
        r[:, p] = 0
        r[p % g, p] = 1
        r[(p + 1) % g, p] = 2
    for p in range(16, PARTITIONS, 32):
        r[:, p] = 400
        s[:, p] = 0
        s[p % g, p] = 2
        s[(p + 3) % g, p] = 1
    return (
        _relation("R", gpu_ids, r, rng, 0),
        _relation("S", gpu_ids, s, rng, 1 << 20),
    )


def _zipf(gpu_ids, zipf):
    workload = make_workload(
        num_gpus=len(gpu_ids), real=8192, key_zipf=zipf, seed=11
    )
    return workload.r, workload.s


def _plan(relations, machine, dead_gpu=None):
    r, s = relations
    histograms = build_histograms(r, s, PARTITIONS)
    assignment = assign_partitions(histograms, machine)
    if dead_gpu is not None:
        bridge = JoinRecoveryCoordinator(histograms, assignment, machine, RAW, 1)
        bridge.on_gpu_dead(dead_gpu)
        assignment = bridge.final_assignment
    return r, s, histograms, assignment


def _subset(relations, gpu_ids):
    return tuple(
        DistributedRelation(rel.name, {g: rel.shard(g) for g in gpu_ids})
        for rel in relations
    )


EIGHT = tuple(range(8))
SEVEN = (0, 1, 2, 3, 4, 6, 7)

CASES = {
    "zipf0": lambda m: _plan(_zipf(EIGHT, 0.0), m),
    "zipf1": lambda m: _plan(_zipf(EIGHT, 1.0), m),
    "zipf1.5": lambda m: _plan(_zipf(EIGHT, 1.5), m),
    "heavy": lambda m: _plan(heavy_hitter_relations(EIGHT, 3), m),
    "heavy-7of8": lambda m: _plan(_subset(heavy_hitter_relations(EIGHT, 4), SEVEN), m),
    "heavy-survivors": lambda m: _plan(heavy_hitter_relations(EIGHT, 5), m, dead_gpu=5),
    "zipf1-survivors": lambda m: _plan(_zipf(EIGHT, 1.0), m, dead_gpu=2),
    "single-gpu": lambda m: _plan(_subset(_zipf(EIGHT, 1.0), (3,)), m),
}


@pytest.fixture(scope="module")
def machine():
    return dgx1_topology()


@pytest.mark.parametrize("case", sorted(CASES))
def test_distribution_matches_mask_loop(machine, case):
    r, s, histograms, assignment = CASES[case](machine)
    got = execute_distribution(r, s, histograms, assignment)
    expected = reference_distribution(r, s, histograms, assignment)
    for side in ("r", "s"):
        got_side, expected_side = getattr(got, side), getattr(expected, side)
        assert list(got_side) == list(expected_side)
        for gpu_id, shard in expected_side.items():
            assert got_side[gpu_id].keys.dtype == shard.keys.dtype
            assert got_side[gpu_id].ids.dtype == shard.ids.dtype
            assert np.array_equal(got_side[gpu_id].keys, shard.keys), (side, gpu_id)
            assert np.array_equal(got_side[gpu_id].ids, shard.ids), (side, gpu_id)


def test_heavy_case_forces_both_broadcast_kinds(machine):
    """The heavy-hitter inputs really exercise both broadcast branches."""
    for relations in (
        heavy_hitter_relations(EIGHT, 3),
        _subset(heavy_hitter_relations(EIGHT, 4), SEVEN),
    ):
        _, _, _, assignment = _plan(relations, machine)
        sides = set(assignment.broadcast_side.tolist())
        assert {BROADCAST_R, BROADCAST_S, NO_BROADCAST} <= sides


def test_survivor_assignment_avoids_the_dead_gpu(machine):
    _, _, _, assignment = CASES["heavy-survivors"](machine)
    dead_pos = assignment.gpu_ids.index(5)
    assert all(dead_pos not in owners for owners in assignment.owners)


def gather_and_concat_distribution(r, s, histograms, assignment):
    """The ordered-copy scatter that gathered into lists and concatenated,
    frozen as the oracle of the received order."""
    gpu_ids = histograms.gpu_ids
    num_gpus = len(gpu_ids)
    received_r = {g: [] for g in gpu_ids}
    received_s = {g: [] for g in gpu_ids}
    broadcast_side = assignment.broadcast_side
    broadcast = list(set(np.nonzero(broadcast_side != NO_BROADCAST)[0].tolist()))
    slot_of = assignment.single_owner_map().copy()
    slot_of[broadcast] = num_gpus + np.arange(len(broadcast))
    num_slots = num_gpus + len(broadcast)
    r_counts, s_counts = histograms.stacked()
    for relation, counts, received, moving_marker in (
        (r, r_counts, received_r, BROADCAST_R),
        (s, s_counts, received_s, BROADCAST_S),
    ):
        for src_pos, src in enumerate(gpu_ids):
            shard = relation.shard(src)
            slots = slot_of[partition_of(shard.keys, histograms.num_partitions)]
            order = np.argsort(slots, kind="stable")
            sizes = np.bincount(slot_of, weights=counts[src_pos], minlength=num_slots)
            bounds = np.concatenate(([0], np.cumsum(sizes.astype(np.int64))))
            keys, ids = shard.keys[order], shard.ids[order]
            for dst_pos, dst in enumerate(gpu_ids):
                start, end = bounds[dst_pos], bounds[dst_pos + 1]
                if start < end:
                    received[dst].append(GpuShard(keys[start:end], ids[start:end]))
            for slot, p in enumerate(broadcast, start=num_gpus):
                start, end = bounds[slot], bounds[slot + 1]
                if start == end:
                    continue
                piece = GpuShard(keys[start:end], ids[start:end])
                owner_positions = assignment.owners[p]
                if broadcast_side[p] == moving_marker:
                    for dst_pos in owner_positions:
                        received[gpu_ids[dst_pos]].append(piece)
                elif src_pos in owner_positions:
                    received[src].append(piece)
    return DistributedData(
        r={g: GpuShard.concat(received_r[g]) for g in gpu_ids},
        s={g: GpuShard.concat(received_s[g]) for g in gpu_ids},
    )


def _spec_plan(machine, real, key_zipf, dead_gpu=None):
    """MG-Join's own partition count over a generated 8-GPU input."""
    workload = make_workload(num_gpus=8, real=real, key_zipf=key_zipf, seed=7)
    histograms = build_histograms(workload.r, workload.s, 4096)
    assignment = assign_partitions(histograms, machine)
    if dead_gpu is not None:
        bridge = JoinRecoveryCoordinator(histograms, assignment, machine, RAW, 1)
        bridge.on_gpu_dead(dead_gpu)
        assignment = bridge.final_assignment
    return workload.r, workload.s, histograms, assignment


IN_PLACE_CASES = {
    # The end-to-end benchmark's join-compute input: 8 x 256 Ki, zipf 0.5.
    "join-compute": lambda m: _spec_plan(m, 256 << 10, 0.5),
    # Hundreds of broadcast partitions: more than 256 slots, uint16 digits.
    "broadcast-heavy": lambda m: _spec_plan(m, 32 << 10, 1.5),
    "broadcast-heavy-dead-gpu": lambda m: _spec_plan(m, 32 << 10, 1.5, dead_gpu=3),
}


@pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
def test_in_place_gather_matches_gather_and_concat(machine, case):
    r, s, histograms, assignment = IN_PLACE_CASES[case](machine)
    if case.startswith("broadcast-heavy"):
        assert len(histograms.gpu_ids) + assignment.num_broadcast > 256
    received = received_histograms(histograms, assignment)
    got = execute_distribution(r, s, histograms, assignment, received)
    expected = gather_and_concat_distribution(r, s, histograms, assignment)
    for side in ("r", "s"):
        got_side, expected_side = getattr(got, side), getattr(expected, side)
        assert list(got_side) == list(expected_side)
        for gpu_id, shard in expected_side.items():
            assert np.array_equal(got_side[gpu_id].keys, shard.keys), (side, gpu_id)
            assert np.array_equal(got_side[gpu_id].ids, shard.ids), (side, gpu_id)
            assert np.array_equal(
                getattr(received, side)[gpu_id],
                np.bincount(
                    partition_of(shard.keys, histograms.num_partitions),
                    minlength=histograms.num_partitions,
                ),
            )


def test_received_histograms_that_disagree_are_refused(machine):
    r, s, histograms, assignment = CASES["zipf1"](machine)
    received = received_histograms(histograms, assignment)
    received.r[0] = received.r[0].copy()
    received.r[0][0] += 1
    with pytest.raises(ValueError, match="received histograms"):
        execute_distribution(r, s, histograms, assignment, received)
