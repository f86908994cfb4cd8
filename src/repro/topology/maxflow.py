"""A small max-flow solver (Dinic's algorithm).

Used to compute cut capacities between GPU subsets when deriving the
bisection bandwidth of a machine configuration.  The graphs involved
are tiny (tens of nodes).  The bisection search prunes most candidate
bipartitions with a lower bound, but still solves a few — and on a
switched fabric like the DGX-2 thousands — so the residual graph lives
in flat parallel lists (edge-indexed capacities and flows plus per-node
adjacency index lists) instead of per-edge objects, and the
blocking-flow search runs iteratively.

Equivalence to the straightforward object/recursive formulation is
load-bearing: edges are visited in insertion order, augmenting-path
limits are ``min`` chains over residuals (no arithmetic), and the
per-phase flow totals accumulate in the same order — so computed flows
are bit-identical to the original implementation.
"""

from __future__ import annotations

from collections import deque

#: Residual capacities at or below this are treated as saturated.
_EPS = 1e-12


class FlowNetwork:
    """Directed flow network over integer node ids.

    Edges are stored as index pairs: the forward edge of
    :meth:`add_edge` gets an even id and its implied zero-capacity
    reverse edge the next odd id, so ``edge ^ 1`` is always the
    residual partner.
    """

    __slots__ = ("num_nodes", "_edge_dst", "_edge_cap", "_edge_flow", "_adjacency")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError("network needs at least one node")
        self.num_nodes = num_nodes
        self._edge_dst: list[int] = []
        self._edge_cap: list[float] = []
        self._edge_flow: list[float] = []
        self._adjacency: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, src: int, dst: int, capacity: float) -> None:
        """Add a directed edge; a zero-capacity reverse edge is implied."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        edge_id = len(self._edge_dst)
        self._edge_dst.extend((dst, src))
        self._edge_cap.extend((capacity, 0.0))
        self._edge_flow.extend((0.0, 0.0))
        self._adjacency[src].append(edge_id)
        self._adjacency[dst].append(edge_id + 1)

    def max_flow(self, source: int, sink: int) -> float:
        """Compute the maximum flow from ``source`` to ``sink``."""
        if source == sink:
            raise ValueError("source and sink must differ")
        total = 0.0
        while True:
            levels = self._bfs_levels(source, sink)
            if levels[sink] < 0:
                return total
            iterators = [0] * self.num_nodes
            while True:
                pushed = self._augment(source, sink, levels, iterators)
                if pushed <= 0:
                    break
                total += pushed

    def _bfs_levels(self, source: int, sink: int) -> list[int]:
        dst = self._edge_dst
        cap = self._edge_cap
        flow = self._edge_flow
        levels = [-1] * self.num_nodes
        levels[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            next_level = levels[node] + 1
            for edge in self._adjacency[node]:
                target = dst[edge]
                if levels[target] < 0 and cap[edge] - flow[edge] > _EPS:
                    levels[target] = next_level
                    queue.append(target)
        return levels

    def _augment(
        self, source: int, sink: int, levels: list[int], iterators: list[int]
    ) -> float:
        """Push one augmenting path through the level graph.

        Iterative version of the classic recursive search: the explicit
        ``path`` / ``limits`` stacks replay exactly the recursion's edge
        order — a node's iterator parks on the edge an augmentation used
        (so the next path re-examines it) and advances past dead ends.
        """
        dst = self._edge_dst
        cap = self._edge_cap
        flow = self._edge_flow
        adjacency = self._adjacency
        path: list[int] = []
        limits: list[float] = []
        node = source
        limit = float("inf")
        while True:
            if node == sink:
                for edge in path:
                    flow[edge] += limit
                    flow[edge ^ 1] -= limit
                return limit
            edges = adjacency[node]
            count = len(edges)
            index = iterators[node]
            advanced = False
            while index < count:
                edge = edges[index]
                residual = cap[edge] - flow[edge]
                if residual > _EPS and levels[dst[edge]] == levels[node] + 1:
                    iterators[node] = index
                    path.append(edge)
                    limits.append(limit)
                    if residual < limit:
                        limit = residual
                    node = dst[edge]
                    advanced = True
                    break
                index += 1
            if advanced:
                continue
            iterators[node] = index
            if not path:
                return 0.0
            edge = path.pop()
            limit = limits.pop()
            node = dst[edge ^ 1]
            iterators[node] += 1
