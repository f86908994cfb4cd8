"""Route enumeration and route-level metrics."""

import pytest

from repro.topology import Route, RouteEnumerator
from repro.topology.machine import TopologyError
from repro.topology.routes import (
    physical_links,
    route_link_count,
    route_min_bandwidth,
    route_static_latency,
)


def test_route_needs_two_gpus():
    with pytest.raises(ValueError):
        Route((3,))


def test_route_rejects_cycles():
    with pytest.raises(ValueError):
        Route((0, 1, 0))


def test_route_accessors():
    route = Route((0, 4, 7))
    assert route.src == 0
    assert route.dst == 7
    assert route.intermediates == (4,)
    assert route.num_hops == 2
    assert not route.is_direct
    assert route.hops() == ((0, 4), (4, 7))
    assert route.next_gpu_after(0) == 4
    assert route.next_gpu_after(4) == 7


def test_next_gpu_after_destination_fails():
    with pytest.raises(ValueError):
        Route((0, 4)).next_gpu_after(4)


def test_direct_route_always_first(dgx1):
    enumerator = RouteEnumerator(dgx1)
    routes = enumerator.routes(0, 7)
    assert routes[0] == Route((0, 7))


def test_multi_hop_routes_are_all_nvlink(dgx1):
    enumerator = RouteEnumerator(dgx1)
    for route in enumerator.routes(0, 7)[1:]:
        for a, b in route.hops():
            assert dgx1.nvlink_between(a, b) is not None


def test_intermediate_cap_respected(dgx1):
    enumerator = RouteEnumerator(dgx1, max_intermediates=1)
    for route in enumerator.routes(0, 7):
        assert len(route.intermediates) <= 1


def test_allowed_gpus_restrict_relays(dgx1):
    enumerator = RouteEnumerator(dgx1, allowed_gpus=(0, 3, 7))
    for route in enumerator.routes(0, 7):
        assert set(route.intermediates) <= {3}


def test_unknown_gpu_rejected(dgx1):
    with pytest.raises(TopologyError):
        RouteEnumerator(dgx1, allowed_gpus=(0, 99))


def test_route_count_scales_with_cap(dgx1):
    short = RouteEnumerator(dgx1, max_intermediates=1)
    long = RouteEnumerator(dgx1, max_intermediates=3)
    assert len(long.routes(0, 7)) > len(short.routes(0, 7))


def test_physical_links_concatenate_hops(dgx1):
    route = Route((0, 4, 7))
    links = physical_links(dgx1, route)
    assert len(links) == 2  # both hops NVLink
    assert links[0].src.index == 0 and links[-1].dst.index == 7


def test_route_metrics_on_staged_vs_relay(dgx1):
    staged = Route((0, 5))
    relay = Route((0, 1, 5))
    assert route_link_count(dgx1, staged) == 5
    assert route_link_count(dgx1, relay) == 2
    assert route_min_bandwidth(dgx1, relay) > route_min_bandwidth(dgx1, staged)
    assert route_static_latency(dgx1, relay) < route_static_latency(dgx1, staged)


def test_paper_route_counts_ballpark(dgx1):
    """§4.2: 'there are 64 possible routes without cycles' — our
    NVLink-only enumeration with <=3 relays finds dozens per pair."""
    enumerator = RouteEnumerator(dgx1)
    for src, dst in ((0, 7), (0, 5), (2, 4)):
        count = len(enumerator.routes(src, dst))
        assert 10 <= count <= 80


class TestFailedLinks:
    """Route invalidation when physical links die (repro.faults)."""

    def _nvlink_ids(self, dgx1, src, dst):
        ids = []
        for a, b in ((src, dst), (dst, src)):
            spec = dgx1.nvlink_between(a, b)
            if spec is not None:
                ids.append(spec.link_id)
        return ids

    def test_fail_link_filters_candidates(self, dgx1):
        enumerator = RouteEnumerator(dgx1)
        before = enumerator.routes(0, 1)
        for link_id in self._nvlink_ids(dgx1, 0, 1):
            enumerator.fail_link(link_id)
        after = enumerator.routes(0, 1)
        assert len(after) < len(before)
        direct = Route((0, 1))
        assert direct in before and direct not in after

    def test_version_bumps_on_every_change(self, dgx1):
        enumerator = RouteEnumerator(dgx1)
        v0 = enumerator.version
        enumerator.fail_link(0)
        v1 = enumerator.version
        enumerator.fail_gpu(7)
        v2 = enumerator.version
        assert v0 < v1 < v2

    def test_all_paths_dead_raises_unroutable(self, dgx1):
        from repro.topology.routes import UnroutableError, physical_links

        enumerator = RouteEnumerator(dgx1, allowed_gpus=(0, 1))
        for route in enumerator.routes(0, 1):
            for spec in physical_links(dgx1, route):
                enumerator.fail_link(spec.link_id)
        with pytest.raises(UnroutableError):
            enumerator.routes(0, 1)

    def test_unroutable_is_a_topology_error(self):
        from repro.topology.machine import TopologyError
        from repro.topology.routes import UnroutableError

        assert issubclass(UnroutableError, TopologyError)
