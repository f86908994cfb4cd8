"""Route interning and the per-route static records of ``RouteCache``."""

import copy
import pickle

from repro.core.assignment import pairwise_tuple_cost
from repro.topology import Route, RouteEnumerator, dgx1_topology
from repro.topology.links import bottleneck_bandwidth
from repro.topology.routes import RouteCache, route_cache

PACKET = 2 * 1024 * 1024


def fresh_dgx1():
    # Bypass the factory's memo so the test owns the machine's cache.
    return dgx1_topology.__wrapped__()


def test_enumerators_on_one_machine_share_route_objects():
    machine = fresh_dgx1()
    full = RouteEnumerator(machine)
    subset = RouteEnumerator(machine, allowed_gpus=(0, 1, 2, 3))
    for src, dst in ((0, 1), (0, 3), (2, 1)):
        shared = {route.gpus: route for route in full.routes(src, dst)}
        for route in subset.routes(src, dst):
            assert route is shared[route.gpus]
        assert full.direct_route(src, dst) is subset.routes(src, dst)[0]


def test_assignment_enumerator_interns_into_the_same_cache():
    machine = fresh_dgx1()
    pairwise_tuple_cost(machine, (0, 1, 2, 3))
    interned = dict(route_cache(machine)._routes)
    assert interned
    shuffle_routes = RouteEnumerator(machine, allowed_gpus=(0, 1, 2, 3))
    for route in shuffle_routes.routes(0, 3):
        assert route is interned[route.gpus]


def test_record_holds_the_route_statics():
    machine = fresh_dgx1()
    cache = route_cache(machine)
    route = RouteEnumerator(machine).routes(0, 5)[-1]
    record = cache.record(route)
    expanded = []
    for src, dst in route.hops():
        expanded.extend(machine.hop_path(src, dst))
    assert record.links == tuple(expanded)
    assert record.hops == tuple(
        (link.link_id, link.latency, link.src.index if link.src.is_gpu else -1)
        for link in expanded
    )
    assert record.static_latency == sum(link.latency for link in expanded)
    assert record.transmission_time(PACKET) == PACKET / bottleneck_bandwidth(
        list(expanded), PACKET
    )
    # Reached by identity on the interned route, built once.
    assert cache.record(route) is record


def test_staged_route_marks_host_side_links_unowned():
    machine = fresh_dgx1()
    staged = RouteEnumerator(machine).direct_route(0, 5)
    owners = [owner for _, _, owner in route_cache(machine).record(staged).hops]
    assert owners[0] == 0
    assert -1 in owners


def test_foreign_route_object_gets_the_same_record():
    machine = fresh_dgx1()
    cache = route_cache(machine)
    interned = RouteEnumerator(machine).routes(0, 4)[0]
    outsider = Route(interned.gpus)
    assert outsider is not interned
    assert cache.record(outsider) is cache.record(interned)
    assert outsider._record is None


def test_records_are_per_machine():
    first, second = fresh_dgx1(), fresh_dgx1()
    route = RouteEnumerator(first).routes(0, 1)[0]
    record_first = route_cache(first).record(route)
    record_second = route_cache(second).record(route)
    assert record_second is not record_first
    assert route_cache(first).record(route) is record_first


def test_fail_link_drops_the_records():
    machine = fresh_dgx1()
    enumerator = RouteEnumerator(machine)
    cache = enumerator.cache
    routes = enumerator.routes(0, 5)
    before = [cache.record(route) for route in routes]
    assert all(route._record is record for route, record in zip(routes, before))
    enumerator.fail_link(machine.hop_path(2, 3)[0].link_id)
    assert all(route._record is None for route in routes)
    after = [cache.record(route) for route in routes]
    assert all(new is not old for new, old in zip(after, before))
    assert [new.links for new in after] == [old.links for old in before]


def test_routes_pickle_and_copy_without_their_record():
    machine = fresh_dgx1()
    route = RouteEnumerator(machine).routes(0, 5)[1]
    route_cache(machine).record(route)
    for clone in (pickle.loads(pickle.dumps(route)), copy.deepcopy(route)):
        assert clone == route and hash(clone) == hash(route)
        assert clone._record is None


def _count_searches(monkeypatch):
    calls = []
    search = RouteCache._enumerate

    def counted(self, *args):
        calls.append(args)
        return search(self, *args)

    monkeypatch.setattr(RouteCache, "_enumerate", counted)
    return calls


def test_candidates_are_enumerated_once_per_machine(monkeypatch):
    searches = _count_searches(monkeypatch)
    machine = fresh_dgx1()
    first = RouteEnumerator(machine, allowed_gpus=(0, 1, 2, 3))
    second = RouteEnumerator(machine, allowed_gpus=(3, 2, 1, 0))
    assert second.routes(0, 3) is first.routes(0, 3)
    assert searches == [((0, 1, 2, 3), 3, 0, 3)]


def test_allowed_sets_do_not_share_candidates():
    machine = fresh_dgx1()
    full = RouteEnumerator(machine).routes(0, 3)
    subset = RouteEnumerator(machine, allowed_gpus=(0, 1, 3)).routes(0, 3)
    assert {gpu for route in subset for gpu in route.gpus} <= {0, 1, 3}
    assert len(full) > len(subset)


def test_fail_link_on_one_enumerator_leaves_the_other_alone():
    machine = fresh_dgx1()
    failing, healthy = RouteEnumerator(machine), RouteEnumerator(machine)
    before = healthy.routes(0, 1)
    failing.fail_link(machine.nvlink_between(0, 1).link_id)
    assert Route((0, 1)) not in failing.routes(0, 1)
    assert healthy.routes(0, 1) == before
    assert RouteEnumerator(machine).routes(0, 1) is before


def test_fail_gpu_gives_survivor_only_candidates_on_that_enumerator():
    machine = fresh_dgx1()
    crashed, healthy = RouteEnumerator(machine), RouteEnumerator(machine)
    full = healthy.routes(0, 3)
    assert any(2 in route.gpus for route in full)
    crashed.routes(0, 3)
    crashed.fail_gpu(2)
    survivors = crashed.routes(0, 3)
    assert survivors and all(2 not in route.gpus for route in survivors)
    assert healthy.routes(0, 3) is full
