"""Phase 2a: network-optimal partition assignment (paper §3.2, step 2).

MG-Join adapts the migration / selective-broadcast optimizer of Track
Join [Polychroniou et al.]: for every radix partition it compares

* **migrating** both relations' tuples to the single cheapest GPU, and
* **selectively broadcasting** one relation's tuples to the GPUs that
  already hold the other relation's tuples (keeping those in place),

and picks whichever moves the fewest byte-seconds over the fabric.  The
per-tuple move cost between two GPUs is the cost over the *lowest
transmission-cost route* assuming no congestion — multi-hop routes
count, which is one of MG-Join's modifications over Track Join.

Broadcasting wins exactly where it should: heavy-hitter partitions
(e.g. single-value skew) where one relation's partition is enormous and
the other's is tiny, so skew is absorbed without moving the giant side.

A second modification is load balancing: every tuple assigned to a GPU
must later be locally partitioned and probed there, so the optimizer
minimizes *move cost + downstream processing cost* — placing the
largest partitions first onto the least-loaded of the cheap owners.
This is how the histogram-driven design "takes care of data skew ...
early in execution", and it also keeps asymmetric configurations (e.g.
7 of the DGX-1's 8 GPUs) from piling work onto the best-connected GPU.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.histogram import HistogramSet
from repro.topology.machine import MachineTopology
from repro.topology.routes import RouteEnumerator, route_min_bandwidth

#: Marker values for PartitionAssignment.broadcast_side.
NO_BROADCAST = 0
BROADCAST_R = 1
BROADCAST_S = 2


def pairwise_tuple_cost(
    machine: MachineTopology,
    gpu_ids: tuple[int, ...],
    tuple_bytes: int = 8,
    max_intermediates: int = 3,
) -> np.ndarray:
    """Seconds to move one tuple between each GPU pair, no congestion.

    ``cost[i, j]`` indexes positions in the sorted ``gpu_ids`` tuple.
    The diagonal is zero.  The cost is the tuple size divided by the
    best achievable bottleneck bandwidth over any candidate route.

    Results are memoized on the machine instance, so they die with it,
    and are returned read-only because every caller shares them.
    """
    ids = tuple(sorted(gpu_ids))
    cache = machine.__dict__.get("_tuple_cost_cache")
    if cache is None:
        cache = {}
        object.__setattr__(machine, "_tuple_cost_cache", cache)
    key = (ids, tuple_bytes, max_intermediates)
    cost = cache.get(key)
    if cost is not None:
        return cost
    enumerator = RouteEnumerator(machine, allowed_gpus=ids, max_intermediates=max_intermediates)
    size = len(ids)
    cost = np.zeros((size, size), dtype=np.float64)
    for i, src in enumerate(ids):
        for j, dst in enumerate(ids):
            if src == dst:
                continue
            best_bw = max(
                route_min_bandwidth(machine, route)
                for route in enumerator.routes(src, dst)
            )
            cost[i, j] = tuple_bytes / best_bw
    cost.flags.writeable = False
    cache[key] = cost
    return cost


@dataclass
class PartitionAssignment:
    """The decided placement of every radix partition.

    Attributes:
        gpu_ids: Participating GPUs (sorted); positions index them.
        owners: For each partition, the tuple of owner *positions*.
            Singleton for migrated partitions, the holder set of the
            kept-in-place relation for broadcast partitions.
        broadcast_side: Per partition NO_BROADCAST / BROADCAST_R /
            BROADCAST_S.
        move_cost: Estimated total move cost (seconds·tuples).
    """

    gpu_ids: tuple[int, ...]
    owners: list[tuple[int, ...]]
    broadcast_side: np.ndarray
    move_cost: float

    @property
    def num_partitions(self) -> int:
        return len(self.owners)

    @property
    def num_broadcast(self) -> int:
        return int(np.count_nonzero(self.broadcast_side))

    def single_owner_map(self) -> np.ndarray:
        """Per-partition owner position for non-broadcast partitions.

        Broadcast partitions get -1.  Built on first use and returned
        read-only: an assignment is never mutated after construction.
        It lives as long as the assignment, so it is held as int16.
        """
        owner_map = self.__dict__.get("_owner_map")
        if owner_map is None:
            first_owner = np.fromiter(
                (owners[0] for owners in self.owners),
                dtype=np.int16,
                count=self.num_partitions,
            )
            owner_map = np.where(self.broadcast_side == NO_BROADCAST, first_owner, -1)
            owner_map.flags.writeable = False
            self._owner_map = owner_map
        return owner_map


#: Downstream processing cost of one tuple on its owner GPU: two HBM
#: touches per local-partitioning pass at the calibrated partition
#: efficiency (~1.1e-10 s/tuple on a V100).  Comparable in magnitude to
#: per-tuple move costs, which is exactly why balance matters.
DEFAULT_PROCESS_COST_PER_TUPLE = 16 / (0.16 * 900e9)


def assign_partitions(
    histograms: HistogramSet,
    machine: MachineTopology,
    tuple_bytes: int = 8,
    process_cost_per_tuple: float = DEFAULT_PROCESS_COST_PER_TUPLE,
) -> PartitionAssignment:
    """Run the migration / selective-broadcast optimizer."""
    gpu_ids = histograms.gpu_ids
    cost = pairwise_tuple_cost(machine, gpu_ids, tuple_bytes)
    r_counts, s_counts = histograms.stacked()  # (G, P)
    num_gpus, num_partitions = r_counts.shape
    both = r_counts + s_counts

    # Cost of migrating everything in partition p to owner o (O x P):
    migrate_cost = cost.T @ both

    # Cost of broadcasting one relation to the holders of the other:
    # sum_{g,h} X[g,p] * cost[g,h] * holder(other)[h,p].
    s_holders = (s_counts > 0).astype(np.float64)
    r_holders = (r_counts > 0).astype(np.float64)
    broadcast_r_cost = np.einsum("gp,gh,hp->p", r_counts, cost, s_holders)
    broadcast_s_cost = np.einsum("gp,gh,hp->p", s_counts, cost, r_holders)
    # A broadcast is pointless when the other side has <= 1 holder
    # (that is just a migration); force the comparison to pick migrate.
    multi_holder_s = s_holders.sum(axis=0) > 1
    multi_holder_r = r_holders.sum(axis=0) > 1
    broadcast_r_cost = np.where(multi_holder_s, broadcast_r_cost, np.inf)
    broadcast_s_cost = np.where(multi_holder_r, broadcast_s_cost, np.inf)

    owners: list[tuple[int, ...]] = [()] * num_partitions
    broadcast_side = [NO_BROADCAST] * num_partitions
    total_cost = 0.0
    assigned_load = [0.0] * num_gpus
    later_positions = range(1, num_gpus)
    single_owner = [(pos,) for pos in range(num_gpus)]

    partition_sizes = both.sum(axis=0)
    visit_order = np.argsort(-partition_sizes).tolist()
    # The greedy visits one partition at a time over a handful of GPUs,
    # where per-call numpy overhead dwarfs the arithmetic: do it in
    # Python floats, which round exactly like float64 array elements.
    # Per-owner rows and shared singleton owner tuples keep the loop
    # from allocating a container per partition (and so from waking
    # the cyclic garbage collector).
    migrate_rows = migrate_cost.tolist()
    migrate_best = migrate_cost.min(axis=0).tolist()
    broadcast_r_best = broadcast_r_cost.tolist()
    broadcast_s_best = broadcast_s_cost.tolist()
    sizes = partition_sizes.astype(np.float64).tolist()
    for p in visit_order:
        # First strict minimum: ties go to migrate, then broadcast-R.
        chosen_cost, chosen_kind = migrate_best[p], NO_BROADCAST
        if broadcast_r_best[p] < chosen_cost:
            chosen_cost, chosen_kind = broadcast_r_best[p], BROADCAST_R
        if broadcast_s_best[p] < chosen_cost:
            chosen_cost, chosen_kind = broadcast_s_best[p], BROADCAST_S
        if chosen_kind == BROADCAST_R:
            owner_positions = tuple(np.nonzero(s_counts[:, p] > 0)[0].tolist())
            per_owner = r_counts[:, p].sum() + s_counts[:, p] / max(
                len(owner_positions), 1
            )
            for pos in owner_positions:
                assigned_load[pos] += float(per_owner[pos])
        elif chosen_kind == BROADCAST_S:
            owner_positions = tuple(np.nonzero(r_counts[:, p] > 0)[0].tolist())
            per_owner = s_counts[:, p].sum() + r_counts[:, p] / max(
                len(owner_positions), 1
            )
            for pos in owner_positions:
                assigned_load[pos] += float(per_owner[pos])
        else:
            # _pick_owner inlined: the same totals, first strict minimum.
            size = sizes[p]
            owner = 0
            best_total = migrate_rows[0][p] + process_cost_per_tuple * (
                assigned_load[0] + size
            )
            for pos in later_positions:
                total = migrate_rows[pos][p] + process_cost_per_tuple * (
                    assigned_load[pos] + size
                )
                if total < best_total:
                    owner, best_total = pos, total
            owner_positions = single_owner[owner]
            assigned_load[owner] += size
            chosen_cost = migrate_rows[owner][p]
        owners[p] = owner_positions
        broadcast_side[p] = chosen_kind
        total_cost += chosen_cost

    return PartitionAssignment(
        gpu_ids=gpu_ids,
        owners=owners,
        broadcast_side=np.array(broadcast_side, dtype=np.int8),
        move_cost=total_cost,
    )


def _pick_owner(
    migrate_rows: list[list[float]],
    partition: int,
    load: list[float],
    partition_size: float,
    process_cost_per_tuple: float,
    positions: Sequence[int],
) -> int:
    """Minimize move cost + the owner's accumulated processing cost.

    The second term models the owner GPU having to locally partition
    and probe everything already assigned to it, so a marginally
    cheaper link never justifies overloading one GPU.  Only
    ``positions`` are candidates; among equal totals the earliest in
    ``positions`` wins.
    """
    best = -1
    best_total = 0.0
    for pos in positions:
        total = migrate_rows[pos][partition] + process_cost_per_tuple * (
            load[pos] + partition_size
        )
        if best < 0 or total < best_total:
            best, best_total = pos, total
    return best


def modulo_assignment(
    histograms: HistogramSet,
) -> PartitionAssignment:
    """Partition p -> GPU (p mod G): what DPRJ-style joins do.

    Ignores data placement entirely, so (G-1)/G of every partition's
    tuples move even when the data already sits on one GPU.
    """
    gpu_ids = histograms.gpu_ids
    num_gpus = len(gpu_ids)
    num_partitions = histograms.num_partitions
    owners = [(p % num_gpus,) for p in range(num_partitions)]
    return PartitionAssignment(
        gpu_ids=gpu_ids,
        owners=owners,
        broadcast_side=np.zeros(num_partitions, dtype=np.int8),
        move_cost=float("nan"),
    )
