"""The scalar partition-assignment greedy against the numpy loop it replaced.

``assign_partitions`` and ``JoinRecoveryCoordinator.on_gpu_dead`` walk
partitions one at a time in Python floats.  These tests keep the
numpy-per-partition loops they replaced as references and require
``owners``, ``broadcast_side`` and ``move_cost`` to compare ``==``:
the same IEEE expressions in the same order, with the same
first-strict-minimum tie rules.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.assignment import (
    BROADCAST_R,
    DEFAULT_PROCESS_COST_PER_TUPLE,
    BROADCAST_S,
    NO_BROADCAST,
    PartitionAssignment,
    assign_partitions,
    pairwise_tuple_cost,
)
from repro.core.compression import CompressionModel
from repro.core.histogram import HistogramSet
from repro.core.recovery import JoinRecoveryCoordinator
from repro.topology import dgx1_topology, dgx2_topology, multi_node_dgx1
from repro.topology.machine import MachineTopology

RAW = CompressionModel(enabled=False, key_bits_elided=0, id_bytes_per_tuple=4.0)


def reference_assign(histograms, machine, tuple_bytes=8, process_cost_per_tuple=DEFAULT_PROCESS_COST_PER_TUPLE):
    """The numpy-per-partition optimizer loop, frozen as the reference."""
    gpu_ids = histograms.gpu_ids
    cost = pairwise_tuple_cost(machine, gpu_ids, tuple_bytes)
    r_counts, s_counts = histograms.stacked()
    num_gpus, num_partitions = r_counts.shape
    both = r_counts + s_counts
    migrate_cost = cost.T @ both
    s_holders = (s_counts > 0).astype(np.float64)
    r_holders = (r_counts > 0).astype(np.float64)
    broadcast_r_cost = np.einsum("gp,gh,hp->p", r_counts, cost, s_holders)
    broadcast_s_cost = np.einsum("gp,gh,hp->p", s_counts, cost, r_holders)
    multi_holder_s = s_holders.sum(axis=0) > 1
    multi_holder_r = r_holders.sum(axis=0) > 1
    broadcast_r_cost = np.where(multi_holder_s, broadcast_r_cost, np.inf)
    broadcast_s_cost = np.where(multi_holder_r, broadcast_s_cost, np.inf)
    best_migrate_cost = migrate_cost.min(axis=0)
    owners = [()] * num_partitions
    broadcast_side = np.zeros(num_partitions, dtype=np.int8)
    total_cost = 0.0
    assigned_load = np.zeros(num_gpus, dtype=np.float64)
    partition_sizes = both.sum(axis=0)
    for partition in np.argsort(-partition_sizes):
        p = int(partition)
        options = (
            (best_migrate_cost[p], NO_BROADCAST),
            (broadcast_r_cost[p], BROADCAST_R),
            (broadcast_s_cost[p], BROADCAST_S),
        )
        chosen_cost, chosen_kind = min(options, key=lambda item: item[0])
        if chosen_kind == BROADCAST_R:
            owner_positions = tuple(np.nonzero(s_counts[:, p] > 0)[0].tolist())
            per_owner = r_counts[:, p].sum() + s_counts[:, p] / max(len(owner_positions), 1)
            for pos in owner_positions:
                assigned_load[pos] += float(per_owner[pos])
        elif chosen_kind == BROADCAST_S:
            owner_positions = tuple(np.nonzero(r_counts[:, p] > 0)[0].tolist())
            per_owner = s_counts[:, p].sum() + r_counts[:, p] / max(len(owner_positions), 1)
            for pos in owner_positions:
                assigned_load[pos] += float(per_owner[pos])
        else:
            total = migrate_cost[:, p] + process_cost_per_tuple * (
                assigned_load + float(partition_sizes[p])
            )
            owner = int(np.argmin(total))
            owner_positions = (owner,)
            assigned_load[owner] += float(partition_sizes[p])
            chosen_cost = float(migrate_cost[owner, p])
        owners[p] = owner_positions
        broadcast_side[p] = chosen_kind
        total_cost += float(chosen_cost)
    return PartitionAssignment(gpu_ids, owners, broadcast_side, total_cost)


def reference_reassign(histograms, assignment, machine, dead_gpu, process_cost_per_tuple=DEFAULT_PROCESS_COST_PER_TUPLE):
    """The numpy survivor argmin of ``on_gpu_dead``, frozen as the reference."""
    gpu_ids = assignment.gpu_ids
    position = {g: pos for pos, g in enumerate(gpu_ids)}
    owners = list(assignment.owners)
    move_cost = assignment.move_cost
    r_counts, s_counts = histograms.stacked()
    both = (r_counts + s_counts).astype(np.float64)
    migrate = pairwise_tuple_cost(machine, gpu_ids).T @ both
    survivor_idx = np.asarray([position[g] for g in gpu_ids if g != dead_gpu], dtype=np.int64)
    dead_pos = position[dead_gpu]
    affected = [p for p, o in enumerate(owners) if dead_pos in o]
    load = np.zeros(len(gpu_ids), dtype=np.float64)
    partition_sizes = both.sum(axis=0)
    for p, owner_positions in enumerate(owners):
        if p in set(affected) or not owner_positions:
            continue
        share = float(partition_sizes[p]) / len(owner_positions)
        for pos in owner_positions:
            load[pos] += share
    for p in sorted(affected, key=lambda p: -partition_sizes[p]):
        size = float(partition_sizes[p])
        total = migrate[survivor_idx, p] + process_cost_per_tuple * (load[survivor_idx] + size)
        new_pos = int(survivor_idx[int(np.argmin(total))])
        load[new_pos] += size
        move_cost += float(migrate[new_pos, p])
        owners[p] = (new_pos,)
    return owners, move_cost


def zipf_counts(rng, gpus, partitions, zipf, tuples_per_gpu):
    """(G, P) counts: each GPU draws its tuples over zipf-ranked partitions."""
    ranks = np.arange(1, partitions + 1, dtype=np.float64)
    weights = ranks ** -zipf
    weights = weights[rng.permutation(partitions)]
    weights /= weights.sum()
    return np.stack([rng.multinomial(tuples_per_gpu, weights) for _ in range(gpus)])


def histogram_set(gpu_ids, r_counts, s_counts):
    return HistogramSet(
        num_partitions=r_counts.shape[1],
        r={g: np.asarray(r_counts[i], dtype=np.int64) for i, g in enumerate(gpu_ids)},
        s={g: np.asarray(s_counts[i], dtype=np.int64) for i, g in enumerate(gpu_ids)},
    )


def skewed(gpu_ids, zipf, seed, partitions=1024):
    rng = np.random.default_rng(seed)
    g = len(gpu_ids)
    return histogram_set(
        gpu_ids,
        zipf_counts(rng, g, partitions, zipf, 4096),
        zipf_counts(rng, g, partitions, zipf, 4096),
    )


def heavy_hitters(gpu_ids, seed, partitions=512):
    """Huge S / tiny R partitions and the mirror image force both broadcasts."""
    rng = np.random.default_rng(seed)
    g = len(gpu_ids)
    r = zipf_counts(rng, g, partitions, 1.0, 2048)
    s = zipf_counts(rng, g, partitions, 1.0, 2048)
    for p in range(0, partitions, 16):
        s[:, p] = 1 << 18
        r[:, p] = 0
        r[p % g, p] = 1 + p % 3
        r[(p + 1) % g, p] = 1
    for p in range(8, partitions, 16):
        r[:, p] = 1 << 18
        s[:, p] = 0
        s[p % g, p] = 1
        s[(p + 3) % g, p] = 2
    r[:, 5::32] = 0  # empty partitions
    s[:, 5::32] = 0
    return histogram_set(gpu_ids, r, s)


def all_equal(gpu_ids, partitions=256):
    counts = np.full((len(gpu_ids), partitions), 7, dtype=np.int64)
    return histogram_set(gpu_ids, counts, counts.copy())


def with_empty(gpu_ids, seed, partitions=512):
    rng = np.random.default_rng(seed)
    g = len(gpu_ids)
    r = zipf_counts(rng, g, partitions, 1.5, 1024)
    s = zipf_counts(rng, g, partitions, 0.0, 1024)
    r[:, ::3] = 0
    s[:, ::3] = 0
    return histogram_set(gpu_ids, r, s)


def _machines():
    dgx1 = dgx1_topology()
    return {
        "dgx1": (dgx1, tuple(range(8))),
        "dgx1-7of8": (dgx1, (0, 1, 2, 3, 4, 6, 7)),
        "dgx1-pair": (dgx1, (0, 3)),
        "dgx2": (dgx2_topology(), tuple(range(16))),
        "multinode2": (multi_node_dgx1(2), tuple(range(16))),
    }


MACHINES = _machines()

CASES = (
    [(m, f"zipf{z}", lambda ids, z=z, i=i: skewed(ids, z, 100 + i))
     for m in MACHINES for i, z in enumerate((0.0, 1.0, 1.5))]
    + [(m, "heavy", lambda ids: heavy_hitters(ids, 7)) for m in MACHINES]
    + [(m, "equal", all_equal) for m in MACHINES]
    + [(m, "empty", lambda ids: with_empty(ids, 11)) for m in MACHINES]
)


@pytest.mark.parametrize(
    "machine_name,shape,make", CASES, ids=[f"{m}-{s}" for m, s, _ in CASES]
)
def test_assignment_matches_numpy_loop(machine_name, shape, make):
    machine, gpu_ids = MACHINES[machine_name]
    histograms = make(gpu_ids)
    got = assign_partitions(histograms, machine)
    want = reference_assign(histograms, machine)
    assert got.owners == want.owners
    assert np.array_equal(got.broadcast_side, want.broadcast_side)
    assert got.move_cost == want.move_cost
    assert np.array_equal(
        got.single_owner_map(),
        [o[0] if k == NO_BROADCAST else -1 for o, k in zip(want.owners, want.broadcast_side)],
    )


@pytest.mark.parametrize("machine_name", ["dgx1", "dgx2", "multinode2"])
def test_heavy_hitters_take_both_broadcasts(machine_name):
    """The heavy-hitter histograms exercise both broadcast branches."""
    machine, gpu_ids = MACHINES[machine_name]
    sides = assign_partitions(heavy_hitters(gpu_ids, 7), machine).broadcast_side
    assert np.count_nonzero(sides == BROADCAST_R) > 0
    assert np.count_nonzero(sides == BROADCAST_S) > 0


def test_two_holder_ties_keep_migrate():
    """Equal counts on two GPUs price migrate and both broadcasts alike;
    the first option, migrate, must win every partition."""
    machine, gpu_ids = MACHINES["dgx1-pair"]
    assignment = assign_partitions(all_equal(gpu_ids), machine)
    assert assignment.num_broadcast == 0


@pytest.mark.parametrize("machine_name", ["dgx1", "dgx1-7of8", "multinode2"])
@pytest.mark.parametrize("shape", ["zipf", "heavy", "equal"])
def test_recovery_reassignment_matches_numpy_loop(machine_name, shape):
    machine, gpu_ids = MACHINES[machine_name]
    histograms = {
        "zipf": lambda: skewed(gpu_ids, 1.0, 5),
        "heavy": lambda: heavy_hitters(gpu_ids, 3),
        "equal": lambda: all_equal(gpu_ids),
    }[shape]()
    assignment = assign_partitions(histograms, machine)
    dead = gpu_ids[1]
    coordinator = JoinRecoveryCoordinator(
        histograms, assignment, machine, RAW, logical_scale=1
    )
    coordinator.on_gpu_dead(dead)
    owners, move_cost = reference_reassign(histograms, assignment, machine, dead)
    final = coordinator.final_assignment
    assert final.owners == owners
    assert final.move_cost == move_cost


def test_pairwise_cost_is_read_only(dgx1):
    cost = pairwise_tuple_cost(dgx1, tuple(range(8)))
    with pytest.raises(ValueError):
        cost[0, 1] = 0.0
    assert pairwise_tuple_cost(dgx1, tuple(range(8)))[0, 1] > 0


def test_pairwise_cost_does_not_keep_machines_alive(dgx1):
    machine = MachineTopology("leak-probe", dgx1.nodes, dgx1.links)
    assign_partitions(skewed(tuple(range(8)), 1.0, 1, partitions=64), machine)
    ref = weakref.ref(machine)
    del machine
    gc.collect()
    assert ref() is None
