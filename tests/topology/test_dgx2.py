"""The DGX-2 NVSwitch machine (negative control for multi-hop gains)."""

import pytest

from repro.routing import AdaptiveArmPolicy, DirectPolicy
from repro.sim import FlowMatrix, ShuffleSimulator
from repro.topology import LinkType, NodeKind, RouteEnumerator, dgx2_topology

MB = 1024 * 1024


@pytest.fixture(scope="module")
def dgx2():
    return dgx2_topology()


def test_sixteen_gpus(dgx2):
    assert dgx2.num_gpus == 16


def test_no_gpu_to_gpu_nvlink(dgx2):
    for a in dgx2.gpu_ids:
        assert dgx2.nvlink_neighbors(a) == ()


def test_direct_path_goes_through_nvswitch(dgx2):
    path = dgx2.direct_path(0, 7)  # same baseboard
    assert len(path) == 2
    assert all(link.link_type is LinkType.NVLINK for link in path)
    assert path[0].dst.kind is NodeKind.SWITCH


def test_cross_board_path_uses_trunk(dgx2):
    path = dgx2.direct_path(0, 15)
    assert [str(link.dst) for link in path[:-1]] == ["sw100", "sw101"]
    assert path[1].lanes == 48


def test_gpu_port_bandwidth(dgx2):
    port = dgx2.direct_path(0, 7)[0]
    assert port.bandwidth == pytest.approx(6 * 25e9)


def test_bisection_far_above_dgx1(dgx2):
    # Trunk-dominated: ~1.2 TB/s per direction vs the DGX-1's 175 GB/s.
    assert dgx2.bisection_bandwidth() > 1e12


def test_no_multi_hop_routes_exist(dgx2):
    enumerator = RouteEnumerator(dgx2)
    for src, dst in ((0, 1), (0, 15), (3, 12)):
        routes = enumerator.routes(src, dst)
        assert len(routes) == 1 and routes[0].is_direct


def test_adaptive_degenerates_to_direct(dgx2):
    """On a crossbar there is nothing to adapt: same routes, same time —
    MG-Join's advantage is specific to point-to-point meshes."""
    flows = FlowMatrix.all_to_all(tuple(range(16)), 16 * MB)
    sim = ShuffleSimulator(dgx2)
    direct = sim.run(flows, DirectPolicy())
    adaptive = sim.run(flows, AdaptiveArmPolicy())
    assert adaptive.elapsed == pytest.approx(direct.elapsed)
    assert adaptive.average_hops == 1.0


def test_join_still_exact_on_dgx2(dgx2):
    from repro.core import MGJoin

    from helpers import make_workload

    workload = make_workload(num_gpus=16, real=512)
    result = MGJoin(dgx2).run(workload)
    assert result.matches_real == workload.r.num_tuples
