"""Route enumeration and route-level cost primitives.

A *route* is the GPU-level itinerary of a packet: the source GPU, up to
three intermediate relay GPUs (the paper's cap, §4.2.2) and the
destination GPU.  Consecutive GPUs on a multi-hop route must be NVLink
adjacent — relaying over a staged PCIe hop would be strictly worse than
the staged direct route.  The direct route itself (single hop; NVLink if
available, staged otherwise) is always a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.links import LinkSpec, bottleneck_bandwidth
from repro.topology.machine import MachineTopology, TopologyError


class UnroutableError(TopologyError):
    """Every candidate route between two GPUs crosses a failed link."""


@dataclass(frozen=True)
class Route:
    """A GPU-level itinerary ``(src, *intermediates, dst)``."""

    gpus: tuple[int, ...]

    #: Static :class:`RouteRecord` of an interned route, set by the
    #: owning :class:`RouteCache`; not a dataclass field, so equality,
    #: hashing and ``repr`` see the GPU tuple alone.
    _record = None

    def __post_init__(self) -> None:
        if len(self.gpus) < 2:
            raise ValueError("a route needs at least a source and a destination")
        if len(set(self.gpus)) != len(self.gpus):
            raise ValueError(f"route {self.gpus} contains a cycle")

    @property
    def src(self) -> int:
        return self.gpus[0]

    @property
    def dst(self) -> int:
        return self.gpus[-1]

    @property
    def intermediates(self) -> tuple[int, ...]:
        return self.gpus[1:-1]

    @property
    def num_hops(self) -> int:
        """Number of GPU-level hops (1 for a direct route)."""
        return len(self.gpus) - 1

    @property
    def is_direct(self) -> bool:
        return self.num_hops == 1

    def hops(self) -> tuple[tuple[int, int], ...]:
        """Consecutive (src_gpu, dst_gpu) pairs along the route."""
        return tuple(zip(self.gpus[:-1], self.gpus[1:]))

    def next_gpu_after(self, gpu_id: int) -> int:
        """The next relay/destination after ``gpu_id`` on this route."""
        position = self.gpus.index(gpu_id)
        if position == len(self.gpus) - 1:
            raise ValueError(f"gpu{gpu_id} is the final destination of {self}")
        return self.gpus[position + 1]

    def __str__(self) -> str:
        return "->".join(str(g) for g in self.gpus)

    def __reduce__(self):
        # Pickles and copies carry the GPU tuple, never a cache record.
        return (Route, (self.gpus,))


class RouteRecord:
    """The static half of one route's ARM evaluation, flattened.

    Built once per route by :meth:`RouteCache.record` and reached from
    an interned :class:`Route` by identity, so the per-packet path
    (route choice, link commit) never hashes a route:

    * ``links`` — the physical links in traversal order;
    * ``hops`` — one ``(link_id, latency, owner_gpu)`` triple per link,
      where ``owner_gpu`` is the GPU whose outgoing port the link is
      (``-1`` for a non-GPU source) — the only GPU that sees the link's
      queue exactly (§4.2.2);
    * ``static_latency`` — the summed link latencies;
    * ``T_R`` of Eq. 3 per packet size, via :meth:`transmission_time`.
    """

    __slots__ = (
        "token",
        "links",
        "hops",
        "static_latency",
        "_transmission",
    )

    def __init__(
        self, token: object, machine: MachineTopology, gpus: tuple[int, ...]
    ) -> None:
        #: Identity token of the :class:`RouteCache` that built this.
        self.token = token
        expanded: list[LinkSpec] = []
        for src, dst in zip(gpus[:-1], gpus[1:]):
            expanded.extend(machine.hop_path(src, dst))
        self.links = tuple(expanded)
        self.hops = tuple(
            (link.link_id, link.latency, link.src.index if link.src.is_gpu else -1)
            for link in self.links
        )
        self.static_latency = sum(link.latency for link in self.links)
        self._transmission: dict[int, float] = {}

    def transmission_time(self, packet_bytes: int) -> float:
        """Static ``T_R`` of Eq. 3 for one packet size over the route."""
        cached = self._transmission.get(packet_bytes)
        if cached is None:
            cached = self._transmission[packet_bytes] = packet_bytes / (
                bottleneck_bandwidth(list(self.links), packet_bytes)
            )
        return cached


class RouteCache:
    """Per-machine route interning and static per-route records.

    Route evaluation (the ARM metric, Eq. 2) splits into a static part —
    the physical link list, the summed link latencies and the
    transmission time ``T_R`` per packet size — and a dynamic part (the
    per-link queue delays).  The static part depends only on the
    immutable topology, so it is computed once per route into a
    :class:`RouteRecord`.

    Every enumerator on one machine builds its routes through
    :meth:`route`, so they all hand out the *same* :class:`Route`
    objects, and an interned route carries its record as an attribute:
    the hot path reaches it by identity instead of hashing the route.

    The candidate set of a GPU pair (:meth:`candidates`) is static too:
    it depends only on the NVLink graph, the GPUs allowed to relay and
    the relay cap.  It is enumerated once per machine, so every
    enumerator, shuffle group and served query on the machine shares
    the same candidate tuple; failed links are filtered per enumerator.

    One cache hangs off each :class:`MachineTopology` instance (see
    :func:`route_cache`), so it dies with the machine instead of leaking
    across benchmark sweeps the way a module-level ``lru_cache`` keyed
    on the machine object would.  :meth:`invalidate` drops every
    record; it is wired to :meth:`RouteEnumerator.fail_link` and the
    fault broadcasts so that chaos runs can never serve a stale static
    view even if link specs ever become mutable.
    """

    __slots__ = ("_machine", "_token", "_routes", "_candidates", "_adjacency")

    def __init__(self, machine: MachineTopology) -> None:
        self._machine = machine
        #: Identity token stamped on this cache's records; a record
        #: holds no reference back to the machine, so a route that
        #: outlives its machine never pins it.
        self._token = object()
        self._routes: dict[tuple[int, ...], Route] = {}
        #: (allowed GPUs, max intermediates, src, dst) -> candidates.
        self._candidates: dict[
            tuple[tuple[int, ...], int, int, int], tuple[Route, ...]
        ] = {}
        #: Allowed GPU set -> NVLink adjacency restricted to that set.
        self._adjacency: dict[tuple[int, ...], dict[int, list[int]]] = {}

    @property
    def machine(self) -> MachineTopology:
        return self._machine

    def route(self, gpus: tuple[int, ...]) -> Route:
        """The machine's one :class:`Route` object for ``gpus``."""
        route = self._routes.get(gpus)
        if route is None:
            route = self._routes[gpus] = Route(gpus)
        return route

    def candidates(
        self, allowed: tuple[int, ...], max_intermediates: int, src: int, dst: int
    ) -> tuple[Route, ...]:
        """Every candidate route from ``src`` to ``dst`` over ``allowed``.

        The direct route comes first, followed by the all-NVLink routes
        of at most ``max_intermediates`` relays drawn from ``allowed``
        (a sorted GPU tuple), ordered by hop count and then GPU tuple.
        """
        key = (allowed, max_intermediates, src, dst)
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = self._enumerate(
                allowed, max_intermediates, src, dst
            )
        return found

    def _enumerate(
        self, allowed: tuple[int, ...], max_intermediates: int, src: int, dst: int
    ) -> tuple[Route, ...]:
        adjacency = self._adjacency.get(allowed)
        if adjacency is None:
            members = set(allowed)
            adjacency = self._adjacency[allowed] = {
                g: [n for n in self._machine.nvlink_neighbors(g) if n in members]
                for g in allowed
            }
        intern = self.route
        found: list[Route] = [intern((src, dst))]

        def extend(path: list[int]) -> None:
            if len(path) - 1 > max_intermediates:
                return
            for neighbor in adjacency[path[-1]]:
                if neighbor in path:
                    continue
                if neighbor == dst:
                    if len(path) > 1:  # direct NVLink route already added
                        found.append(intern(tuple(path) + (dst,)))
                    continue
                path.append(neighbor)
                extend(path)
                path.pop()

        extend([src])
        multi_hop = sorted(found[1:], key=lambda r: (r.num_hops, r.gpus))
        return (found[0], *multi_hop)

    def record(self, route: Route) -> RouteRecord:
        """Static record of ``route`` (any route object on this machine).

        An interned route carries its record; any other route object
        shares the record of its interned twin.
        """
        record = route._record
        if record is not None and record.token is self._token:
            return record
        interned = self.route(route.gpus)
        record = interned._record
        if record is None:
            record = RouteRecord(self._token, self._machine, interned.gpus)
            object.__setattr__(interned, "_record", record)
        return record

    def invalidate(self) -> None:
        """Drop every record (link failure / fault broadcast).

        Interned routes stay interned — a route is just its GPU tuple —
        but lose the record they carry.  Candidate sets stay as well:
        they hold GPU tuples only, and each enumerator filters out its
        own failed links.
        """
        for route in self._routes.values():
            if route._record is not None:
                object.__setattr__(route, "_record", None)


def route_cache(machine: MachineTopology) -> RouteCache:
    """The :class:`RouteCache` owned by ``machine`` (created on demand)."""
    cache = machine.__dict__.get("_route_cache")
    if cache is None:
        cache = RouteCache(machine)
        object.__setattr__(machine, "_route_cache", cache)
    return cache


def physical_links(machine: MachineTopology, route: Route) -> tuple[LinkSpec, ...]:
    """Expand a GPU-level route into the physical links it traverses."""
    return route_cache(machine).record(route).links


def route_min_bandwidth(machine: MachineTopology, route: Route) -> float:
    """Bottleneck (minimum) link bandwidth along the route, bytes/s."""
    return min(link.bandwidth for link in physical_links(machine, route))


def route_link_count(machine: MachineTopology, route: Route) -> int:
    """Number of physical links traversed (the 'hop count' metric).

    Counted over physical links rather than GPU hops so that a staged
    direct route (which crosses up to five links) is correctly seen as
    longer than a two-hop NVLink relay.
    """
    return len(physical_links(machine, route))


def route_static_latency(machine: MachineTopology, route: Route) -> float:
    """Sum of static link latencies along the route, seconds."""
    return route_cache(machine).record(route).static_latency


class RouteEnumerator:
    """Enumerates candidate routes between GPU pairs on one machine.

    Args:
        machine: The topology to enumerate over.
        allowed_gpus: GPUs that may appear on routes (defaults to all).
            Only GPUs participating in the join relay packets, because
            relaying requires routing-buffer memory on the relay GPU.
        max_intermediates: Cap on relay GPUs per route (paper: 3).
    """

    def __init__(
        self,
        machine: MachineTopology,
        allowed_gpus: tuple[int, ...] | None = None,
        max_intermediates: int = 3,
    ) -> None:
        if max_intermediates < 0:
            raise ValueError("max_intermediates must be non-negative")
        self._machine = machine
        self._allowed = tuple(
            sorted(allowed_gpus if allowed_gpus is not None else machine.gpu_ids)
        )
        unknown = set(self._allowed) - set(machine.gpu_ids)
        if unknown:
            raise TopologyError(f"unknown GPUs in allowed set: {sorted(unknown)}")
        self._max_intermediates = max_intermediates
        #: Static-quantity cache shared with every other enumerator on
        #: the same machine instance (see :func:`route_cache`).
        self._cache = route_cache(machine)
        #: Link ids declared permanently failed; routes crossing any of
        #: them are excluded from enumeration.
        self._failed: set[int] = set()
        #: GPUs declared dead; they may not source, relay or terminate
        #: any route (survivor-only enumeration during crash recovery).
        self._dead_gpus: set[int] = set()
        #: Bumped whenever the failed-link set changes, so callers that
        #: cache per-(src, dst) winners (the static policies) can key
        #: their caches on it and never serve a stale route.
        self._version = 0
        self._memo: dict[tuple[int, int], tuple[Route, ...]] = {}

    @property
    def machine(self) -> MachineTopology:
        return self._machine

    @property
    def cache(self) -> RouteCache:
        """Static route-quantity cache for this enumerator's machine."""
        return self._cache

    @property
    def allowed_gpus(self) -> tuple[int, ...]:
        return self._allowed

    @property
    def version(self) -> int:
        return self._version

    @property
    def failed_links(self) -> frozenset[int]:
        return frozenset(self._failed)

    def fail_link(self, link_id: int) -> None:
        """Invalidate every route crossing ``link_id`` (dead edge)."""
        if link_id not in self._failed:
            self._failed.add(link_id)
            self._version += 1
            self._memo.clear()
            self._cache.invalidate()

    @property
    def dead_gpus(self) -> frozenset[int]:
        return frozenset(self._dead_gpus)

    def fail_gpu(self, gpu_id: int) -> None:
        """Remove a dead GPU from the allowed set entirely.

        Unlike :meth:`fail_link` — which only excludes routes crossing
        specific edges — a failed GPU may not appear on any route at
        all: not as a relay, not as an endpoint.  The shrunken allowed
        set keys a different candidate set in the machine's cache.
        """
        if gpu_id in self._dead_gpus:
            return
        self._dead_gpus.add(gpu_id)
        self._allowed = tuple(g for g in self._allowed if g != gpu_id)
        self._version += 1
        self._memo.clear()
        self._cache.invalidate()

    def routes(self, src: int, dst: int) -> tuple[Route, ...]:
        """All candidate routes from ``src`` to ``dst``.

        The direct route comes first, followed by multi-hop all-NVLink
        routes ordered by increasing hop count.  Routes crossing a link
        marked failed via :meth:`fail_link` are excluded; when *every*
        candidate does, :class:`UnroutableError` is raised so callers
        can fall back (host staging) instead of hanging.
        """
        key = (src, dst)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if src == dst:
            raise ValueError("source and destination GPUs must differ")
        for gpu_id in (src, dst):
            if gpu_id in self._dead_gpus:
                raise UnroutableError(f"gpu{gpu_id} was declared dead")
            if gpu_id not in self._allowed:
                raise TopologyError(f"gpu{gpu_id} is not in the allowed set")
        candidates = self._cache.candidates(
            self._allowed, self._max_intermediates, src, dst
        )
        if self._failed:
            usable = tuple(
                route
                for route in candidates
                if not any(
                    link.link_id in self._failed
                    for link in physical_links(self._machine, route)
                )
            )
        else:
            usable = candidates
        if not usable:
            raise UnroutableError(
                f"no route from gpu{src} to gpu{dst} avoids the failed "
                f"links {sorted(self._failed)}"
            )
        self._memo[key] = usable
        return usable

    def direct_route(self, src: int, dst: int) -> Route:
        return self._cache.route((src, dst))
