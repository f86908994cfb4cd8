"""The machine topology graph and its structural queries.

A :class:`MachineTopology` is an immutable description of one scale-up
server: which GPUs exist, how they hang off PCIe switches and CPU
sockets, and which NVLink links connect them directly.  It answers the
structural questions the join and routing layers need:

* the *direct route* between two GPUs — NVLink if present, otherwise the
  staged PCIe(/QPI) path through switches and CPU memory (§2.2),
* NVLink adjacency for multi-hop route enumeration (§4.1),
* bisection bandwidth of a GPU subset, used for the utilization metric
  of Figure 8.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.topology.links import LinkSpec, LinkType
from repro.topology.maxflow import FlowNetwork
from repro.topology.nodes import Node, gpu


#: Bisection candidates lower-bounded per numpy batch (16 GPUs: 6,435).
_BOUND_CHUNK = 1 << 16


class TopologyError(ValueError):
    """Raised for malformed topologies or impossible path queries."""


@dataclass(frozen=True)
class MachineTopology:
    """An immutable interconnect graph for one multi-GPU server.

    Build instances through :class:`repro.topology.TopologyBuilder` or
    the canned factories (:func:`repro.topology.dgx1_topology`,
    :func:`repro.topology.dgx_station_topology`).
    """

    name: str
    nodes: tuple[Node, ...]
    links: tuple[LinkSpec, ...]

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise TopologyError("duplicate nodes in topology")
        ids = [link.link_id for link in self.links]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate link ids in topology")
        for link in self.links:
            if link.src not in node_set or link.dst not in node_set:
                raise TopologyError(f"link {link} references unknown node")
        # Structural queries and routing layers look things up keyed on
        # the (immutable) topology millions of times per simulated
        # shuffle, so the hash is computed once and every derived index
        # lives on the instance — dying with it — instead of in
        # module-level ``lru_cache`` slots that would both rehash the
        # whole graph per lookup and keep dead machines alive across
        # benchmark sweeps.
        object.__setattr__(self, "_hash", hash((self.name, self.nodes, self.links)))
        object.__setattr__(self, "_link_index_cache", None)
        object.__setattr__(self, "_outgoing_index_cache", None)
        object.__setattr__(self, "_nvlink_adjacency_cache", None)
        object.__setattr__(self, "_direct_paths", {})
        object.__setattr__(self, "_cut_capacity_cache", {})
        object.__setattr__(self, "_min_bisection_cache", {})
        object.__setattr__(self, "_bisection_cut_cache", {})

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def gpu_ids(self) -> tuple[int, ...]:
        """Indices of all GPUs, sorted."""
        return tuple(sorted(n.index for n in self.nodes if n.is_gpu))

    @property
    def num_gpus(self) -> int:
        return len(self.gpu_ids)

    def links_between(self, src: Node, dst: Node) -> tuple[LinkSpec, ...]:
        """All directed links from ``src`` to ``dst``."""
        return self._link_index().get((src, dst), ())

    def nvlink_between(self, src_gpu: int, dst_gpu: int) -> LinkSpec | None:
        """The NVLink link from one GPU to another, if they are adjacent.

        Bonded (double) links appear as a single spec with ``lanes=2``.
        """
        for link in self.links_between(gpu(src_gpu), gpu(dst_gpu)):
            if link.link_type is LinkType.NVLINK:
                return link
        return None

    def nvlink_neighbors(self, gpu_id: int) -> tuple[int, ...]:
        """GPU indices directly reachable from ``gpu_id`` over NVLink."""
        return self._nvlink_adjacency().get(gpu_id, ())

    def outgoing_links(self, node: Node) -> tuple[LinkSpec, ...]:
        return self._outgoing_index().get(node, ())

    # ------------------------------------------------------------------
    # Direct routes
    # ------------------------------------------------------------------

    def direct_path(self, src_gpu: int, dst_gpu: int) -> tuple[LinkSpec, ...]:
        """Physical links of the *direct route* between two GPUs.

        The direct route is what single-hop implementations (DPRJ, NCCL
        P2P) use: the NVLink link when the pair is NVLink-adjacent, and
        otherwise the staged path over PCIe switches (and QPI when the
        GPUs live on different sockets).  Staged transfers count as
        direct per the paper because no intermediate *GPU* is involved.
        """
        return self._direct_path_cached(src_gpu, dst_gpu)

    def hop_path(self, src_gpu: int, dst_gpu: int) -> tuple[LinkSpec, ...]:
        """Physical links for one GPU-level hop of a multi-hop route.

        Identical to :meth:`direct_path`; named separately because the
        routing layer composes hops out of these.
        """
        return self.direct_path(src_gpu, dst_gpu)

    def _direct_path_cached(self, src_gpu: int, dst_gpu: int):
        cache = self._direct_paths
        key = (src_gpu, dst_gpu)
        path = cache.get(key)
        if path is None:
            path = cache[key] = self._compute_direct_path(src_gpu, dst_gpu)
        return path

    def _compute_direct_path(
        self, src_gpu: int, dst_gpu: int
    ) -> tuple[LinkSpec, ...]:
        if src_gpu == dst_gpu:
            raise TopologyError(f"no path from gpu{src_gpu} to itself")
        nvlink = self.nvlink_between(src_gpu, dst_gpu)
        if nvlink is not None:
            return (nvlink,)
        return self._staged_path(gpu(src_gpu), gpu(dst_gpu))

    def _staged_path(self, src: Node, dst: Node) -> tuple[LinkSpec, ...]:
        """Cheapest path that relays through no other GPU (Dijkstra).

        On point-to-point machines (DGX-1) this walks the PCIe tree up
        from the source GPU, across QPI if the sockets differ, and back
        down to the destination — the driver's staging behaviour of
        §2.2.  On NVSwitch machines (DGX-2) it goes through the switch
        fabric's NVLink ports instead.  GPU-to-GPU NVLink links are
        excluded: using one would mean relaying through a GPU, which is
        multi-hop routing, not a direct route.
        """
        best_cost: dict[Node, float] = {src: 0.0}
        best_link: dict[Node, LinkSpec] = {}
        heap: list[tuple[float, int, Node]] = [(0.0, 0, src)]
        tiebreak = itertools.count(1)
        visited: set[Node] = set()
        while heap:
            cost, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for link in self.outgoing_links(node):
                if (
                    link.link_type is LinkType.NVLINK
                    and link.src.is_gpu
                    and link.dst.is_gpu
                ):
                    continue  # a GPU-GPU hop is not a direct route
                if link.dst.is_gpu and link.dst != dst:
                    continue
                next_cost = cost + 1.0 / link.bandwidth + link.latency
                if next_cost < best_cost.get(link.dst, float("inf")):
                    best_cost[link.dst] = next_cost
                    best_link[link.dst] = link
                    heapq.heappush(heap, (next_cost, next(tiebreak), link.dst))
        if dst not in best_link:
            raise TopologyError(f"no staged path from {src} to {dst}")
        path: list[LinkSpec] = []
        node = dst
        while node != src:
            link = best_link[node]
            path.append(link)
            node = link.src
        path.reverse()
        return tuple(path)

    # ------------------------------------------------------------------
    # Bisection bandwidth (Figure 8 metric)
    # ------------------------------------------------------------------

    def bisection_bandwidth(self, gpu_ids: tuple[int, ...] | None = None) -> float:
        """Bisection bandwidth (bytes/s, one direction) of a GPU subset.

        Defined as the minimum, over all balanced bipartitions of the
        participating GPUs, of the max-flow capacity from one half to
        the other through the full link graph.  Shared PCIe uplinks and
        the QPI link are therefore counted once, not per GPU pair.
        """
        return self.min_bisection(gpu_ids)[0]

    def min_bisection(
        self, gpu_ids: tuple[int, ...] | None = None
    ) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
        """The minimum balanced bipartition: ``(capacity, side_a, side_b)``.

        Candidates are the ``len // 2``-combinations of the sorted ids,
        in lexicographic order, as ``side_a``; for an even count only
        those holding the lowest id, so each bipartition appears once.
        ``capacity`` is the max flow from ``side_a`` to ``side_b``, and
        among equal minima the earliest candidate wins.

        The search is exact but prices few candidates: it visits them in
        order of a cheap lower bound (:meth:`_bisection_bounds`) and
        stops once the bound exceeds the best capacity found.  Results
        are memoized per instance.
        """
        ids = self._bisection_ids(gpu_ids)
        cache: dict = self._min_bisection_cache
        cached = cache.get(ids)
        if cached is None:
            cached = cache[ids] = self._search_bisection(ids)
        return cached

    def _bisection_ids(self, gpu_ids: tuple[int, ...] | None) -> tuple[int, ...]:
        if gpu_ids is None:
            ids = self.gpu_ids
        else:
            ids = tuple(sorted(gpu_ids))
            unknown = sorted(set(ids) - set(self.gpu_ids))
            if unknown:
                raise TopologyError(f"unknown GPU ids {unknown} on {self.name}")
            duplicates = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
            if duplicates:
                raise TopologyError(f"duplicate GPU ids {duplicates}")
        if len(ids) < 2:
            raise TopologyError("bisection needs at least 2 GPUs")
        return ids

    def _search_bisection(
        self, ids: tuple[int, ...]
    ) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
        """Bound-ordered exact search over the candidates of :meth:`min_bisection`.

        A candidate whose lower bound exceeds the best capacity cannot
        beat or tie it, so the visit stops there.  The ``1e-9`` slack
        keeps float rounding in the bound from pruning a true tie.
        Candidates are scored a chunk at a time, in enumeration order,
        to bound memory on large machines; every machine up to 16 GPUs
        fits in one chunk.
        """
        combos = itertools.combinations(range(len(ids)), len(ids) // 2)
        if len(ids) % 2 == 0:
            combos = itertools.takewhile(lambda combo: combo[0] == 0, combos)
        best = (float("inf"), -1, (), ())
        offset = 0
        while chunk := list(itertools.islice(combos, _BOUND_CHUNK)):
            bounds = self._bisection_bounds(ids, np.array(chunk))
            for index in np.argsort(bounds, kind="stable").tolist():
                if bounds[index] > best[0] * (1.0 + 1e-9):
                    break
                side_a = tuple(ids[i] for i in chunk[index])
                side_b = tuple(g for g in ids if g not in side_a)
                capacity = self._cut_capacity(side_a, side_b)
                if (capacity, offset + index) < best[:2]:
                    best = (capacity, offset + index, side_a, side_b)
            offset += len(chunk)
        capacity, _, side_a, side_b = best
        return capacity, side_a, side_b

    def _bisection_bounds(
        self, ids: tuple[int, ...], combos: np.ndarray
    ) -> np.ndarray:
        """Feasible-flow lower bounds on the cut capacity of each candidate.

        ``combos`` holds one candidate per row as positions into ``ids``.
        The flow sums edge-disjoint paths from side A to side B: every
        direct GPU->GPU link, plus ``min(cap(A->v), cap(v->B))`` through
        each non-GPU node ``v``.  Each link lies on at most one of these
        paths, so their sum is a feasible flow and never exceeds the
        max flow.
        """
        position = {gpu(g): i for i, g in enumerate(ids)}
        relays = {
            node: j
            for j, node in enumerate(n for n in self.nodes if not n.is_gpu)
        }
        direct = np.zeros((len(ids), len(ids)))
        into_relay = np.zeros((len(ids), len(relays)))
        from_relay = np.zeros((len(relays), len(ids)))
        for link in self.links:
            src, dst = position.get(link.src), position.get(link.dst)
            if src is not None and dst is not None:
                direct[src, dst] += link.bandwidth
            elif src is not None and link.dst in relays:
                into_relay[src, relays[link.dst]] += link.bandwidth
            elif dst is not None and link.src in relays:
                from_relay[relays[link.src], dst] += link.bandwidth
        side_a = np.zeros((len(combos), len(ids)))
        side_a[np.arange(len(combos))[:, None], combos] = 1.0
        side_b = 1.0 - side_a
        return ((side_a @ direct) * side_b).sum(axis=1) + np.minimum(
            side_a @ into_relay, side_b @ from_relay.T
        ).sum(axis=1)

    def _cut_capacity(
        self, side_a: tuple[int, ...], side_b: tuple[int, ...]
    ) -> float:
        """Max-flow capacity from ``side_a`` to ``side_b``.

        Only the GPUs in the two sides participate; links touching any
        other GPU are excluded, because a non-participating GPU cannot
        relay traffic for the configuration being measured.

        Results are memoized per instance: the topology is immutable,
        and the bipartitions the bisection search prices recur across
        every report built on the same machine (the reverse direction of
        a cut, other GPU subsets, perf harness, figures, chaos sweeps).
        """
        cache: dict = self._cut_capacity_cache
        cache_key = (side_a, side_b)
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
        participating = set(side_a) | set(side_b)
        index = {node: i for i, node in enumerate(self.nodes)}
        source = len(index)
        sink = len(index) + 1
        network = FlowNetwork(len(index) + 2)
        infinite = sum(link.bandwidth for link in self.links) + 1.0
        for link in self.links:
            if (link.src.is_gpu and link.src.index not in participating) or (
                link.dst.is_gpu and link.dst.index not in participating
            ):
                continue
            network.add_edge(index[link.src], index[link.dst], link.bandwidth)
        for gpu_id in side_a:
            network.add_edge(source, index[gpu(gpu_id)], infinite)
        for gpu_id in side_b:
            network.add_edge(index[gpu(gpu_id)], sink, infinite)
        capacity = network.max_flow(source, sink)
        cache[cache_key] = capacity
        return capacity

    # ------------------------------------------------------------------
    # Internal caches (per instance: a machine's indexes die with it)
    # ------------------------------------------------------------------

    def _link_index(self) -> dict[tuple[Node, Node], tuple[LinkSpec, ...]]:
        cached = self._link_index_cache
        if cached is None:
            index: dict[tuple[Node, Node], list[LinkSpec]] = {}
            for link in self.links:
                index.setdefault((link.src, link.dst), []).append(link)
            cached = {key: tuple(value) for key, value in index.items()}
            object.__setattr__(self, "_link_index_cache", cached)
        return cached

    def _outgoing_index(self) -> dict[Node, tuple[LinkSpec, ...]]:
        cached = self._outgoing_index_cache
        if cached is None:
            index: dict[Node, list[LinkSpec]] = {}
            for link in self.links:
                index.setdefault(link.src, []).append(link)
            cached = {key: tuple(value) for key, value in index.items()}
            object.__setattr__(self, "_outgoing_index_cache", cached)
        return cached

    def _nvlink_adjacency(self) -> dict[int, tuple[int, ...]]:
        cached = self._nvlink_adjacency_cache
        if cached is None:
            adjacency: dict[int, list[int]] = {g: [] for g in self.gpu_ids}
            for link in self.links:
                if (
                    link.link_type is LinkType.NVLINK
                    and link.src.is_gpu
                    and link.dst.is_gpu
                ):
                    adjacency[link.src.index].append(link.dst.index)
            cached = {
                key: tuple(sorted(value)) for key, value in adjacency.items()
            }
            object.__setattr__(self, "_nvlink_adjacency_cache", cached)
        return cached

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # Derived caches are cheap to rebuild and ``_hash`` is only
        # valid within one interpreter (string hashing is salted), so
        # pickles carry the structural fields alone.
        return {
            "name": self.name,
            "nodes": self.nodes,
            "links": self.links,
        }

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        self.__post_init__()
