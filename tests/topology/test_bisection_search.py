"""The bound-ordered bisection search against exhaustive enumeration.

``MachineTopology.min_bisection`` prunes candidates with a lower bound;
these tests hold it to the exact cut — sides, capacities and crossing
links, compared with ``==`` — that pricing every balanced bipartition
and keeping the first strict minimum produces.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sim.stats import BisectionCut, _assign_node_sides, bisection_cut
from repro.topology import (
    LinkSpec,
    TopologyBuilder,
    dgx1_topology,
    dgx2_topology,
    multi_node_dgx1,
)
from repro.topology.machine import MachineTopology, TopologyError
from repro.topology.maxflow import FlowNetwork


def fresh(machine: MachineTopology) -> MachineTopology:
    """An equal machine with empty per-instance caches."""
    return MachineTopology(machine.name, machine.nodes, machine.links)


def exhaustive_cut(machine: MachineTopology, gpu_ids) -> BisectionCut:
    """Price every balanced bipartition; the first strict minimum wins."""
    ids = tuple(sorted(gpu_ids))
    best = None
    seen: set[frozenset[int]] = set()
    for side_a in itertools.combinations(ids, len(ids) // 2):
        key = frozenset(side_a)
        other = frozenset(ids) - key
        if other in seen:
            continue
        seen.add(key)
        side_b = tuple(sorted(other))
        capacity = machine._cut_capacity(side_a, side_b)
        if best is None or capacity < best[0]:
            best = (capacity, side_a, side_b)
    capacity_ab, side_a, side_b = best
    sides = _assign_node_sides(machine, side_a, side_b)
    crossing = {"a": [], "b": []}
    for link in machine.links:
        src_side, dst_side = sides.get(link.src), sides.get(link.dst)
        if None not in (src_side, dst_side) and src_side != dst_side:
            crossing[src_side].append(link.link_id)
    return BisectionCut(
        side_a=side_a,
        side_b=side_b,
        capacity_ab=capacity_ab,
        capacity_ba=machine._cut_capacity(side_b, side_a),
        crossing_ab=tuple(crossing["a"]),
        crossing_ba=tuple(crossing["b"]),
    )


def assert_search_matches_exhaustive(machine: MachineTopology, gpu_ids) -> None:
    expected = exhaustive_cut(fresh(machine), gpu_ids)
    searched = fresh(machine)
    cut = bisection_cut(searched, gpu_ids)
    assert cut.side_a == expected.side_a
    assert cut.side_b == expected.side_b
    assert cut.capacity_ab == expected.capacity_ab
    assert cut.capacity_ba == expected.capacity_ba
    assert cut.crossing_ab == expected.crossing_ab
    assert cut.crossing_ba == expected.crossing_ba
    assert fresh(machine).bisection_bandwidth(gpu_ids) == expected.capacity_ab


def random_machine(seed: int) -> MachineTopology:
    """A PCIe tree plus random NVLink/NVSwitch/IB wiring and lane counts.

    Some directed links then get a different lane count than their
    reverse, so the two directions of a cut can differ.
    """
    rng = random.Random(seed)
    num_gpus = rng.randint(5, 10)
    num_switches = rng.randint(2, 4)
    builder = TopologyBuilder(f"random-{seed}")
    builder.add_gpus(num_gpus)
    for switch_id in range(num_switches):
        builder.add_switch(switch_id, socket=switch_id % 2)
    for gpu_id in range(num_gpus):
        builder.attach_gpu_to_switch(gpu_id, rng.randrange(num_switches))
    builder.add_qpi(0, 1)
    for gpu_a, gpu_b in itertools.combinations(range(num_gpus), 2):
        if rng.random() < 0.35:
            builder.add_nvlink(gpu_a, gpu_b, lanes=rng.randint(1, 2))
    for gpu_id in range(num_gpus):
        if rng.random() < 0.3:
            builder.add_nvlink_to_switch(
                gpu_id, rng.randrange(num_switches), lanes=rng.randint(1, 3)
            )
    if rng.random() < 0.5:
        builder.add_infiniband(0, 1, lanes=rng.randint(1, 4))
    machine = builder.build()
    links = tuple(
        LinkSpec(
            link.link_id, link.src, link.dst, link.link_type, rng.randint(1, 3)
        )
        if rng.random() < 0.25
        else link
        for link in machine.links
    )
    return MachineTopology(machine.name, machine.nodes, links)


DGX1_SUBSETS = [
    subset
    for size in range(2, 9)
    for subset in itertools.combinations(range(8), size)
]


def test_dgx1_subset_count():
    assert len(DGX1_SUBSETS) == 247


@pytest.mark.parametrize("gpu_ids", DGX1_SUBSETS, ids=str)
def test_dgx1_subsets_match_exhaustive(gpu_ids):
    assert_search_matches_exhaustive(dgx1_topology(), gpu_ids)


def test_dgx2_matches_exhaustive():
    machine = dgx2_topology()
    assert_search_matches_exhaustive(machine, machine.gpu_ids)


def test_two_node_dgx1_matches_exhaustive():
    machine = multi_node_dgx1(2)
    assert_search_matches_exhaustive(machine, machine.gpu_ids)


@pytest.mark.parametrize("seed", range(3))
def test_three_node_dgx1_subsets_match_exhaustive(seed):
    machine = multi_node_dgx1(3)
    rng = random.Random(seed)
    gpu_ids = tuple(rng.sample(machine.gpu_ids, rng.randint(10, 12)))
    assert_search_matches_exhaustive(machine, gpu_ids)


@pytest.mark.parametrize("seed", range(10))
def test_random_machines_match_exhaustive(seed):
    machine = random_machine(seed)
    assert_search_matches_exhaustive(machine, machine.gpu_ids)
    subset = tuple(random.Random(seed).sample(machine.gpu_ids, 5))
    assert_search_matches_exhaustive(machine, subset)


def test_random_machines_exercise_asymmetry_and_ties():
    """The random family covers what the search's tie rule guards."""
    asymmetric = ties = 0
    for seed in range(10):
        machine = random_machine(seed)
        ids = machine.gpu_ids
        cut = exhaustive_cut(machine, ids)
        asymmetric += cut.capacity_ab != cut.capacity_ba
        minima = sum(
            cut.capacity_ab
            == machine._cut_capacity(side_a, tuple(sorted(set(ids) - set(side_a))))
            for side_a in itertools.combinations(ids, len(ids) // 2)
            if len(ids) % 2 or side_a[0] == ids[0]
        )
        ties += minima > 1
    assert asymmetric and ties


@pytest.mark.parametrize(
    "factory", [dgx1_topology, lambda: multi_node_dgx1(2)], ids=["dgx1", "dgx1-x2"]
)
def test_bisection_cut_solves_two_max_flows(factory, monkeypatch):
    """One solve finds the cut, one prices its reverse direction."""
    machine = fresh(factory())
    solves = []
    original = FlowNetwork.max_flow

    def counted(self, source, sink):
        solves.append((source, sink))
        return original(self, source, sink)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    bisection_cut(machine)
    assert len(solves) == 2


def test_unknown_gpu_ids_rejected(dgx1):
    with pytest.raises(TopologyError, match=r"unknown GPU ids \[99\]"):
        bisection_cut(dgx1, (0, 99))
    with pytest.raises(TopologyError, match=r"unknown GPU ids \[99\]"):
        dgx1.bisection_bandwidth((0, 99))


def test_duplicate_gpu_ids_rejected(dgx1):
    with pytest.raises(TopologyError, match=r"duplicate GPU ids \[0\]"):
        bisection_cut(dgx1, (0, 0, 1, 2))
    with pytest.raises(TopologyError, match=r"duplicate GPU ids \[0\]"):
        dgx1.min_bisection((0, 0, 1, 2))
