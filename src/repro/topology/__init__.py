"""Machine topology models for scale-up multi-GPU servers.

This package models the interconnect fabric of machines like the NVIDIA
DGX-1 at the level the paper reasons about: GPUs, PCIe switches and CPU
sockets as nodes, and NVLink / PCIe / QPI links as directed edges with
individual bandwidth and latency characteristics.

The topology layer is purely structural — it answers questions like
"which physical links does a transfer from GPU 0 to GPU 5 traverse?" and
"what is the bisection bandwidth of this GPU subset?".  Time-domain
behaviour (queueing, congestion) lives in :mod:`repro.sim`.
"""

from typing import Callable

from repro.topology.links import (
    LinkSpec,
    LinkType,
    effective_bandwidth,
    transfer_time,
)
from repro.topology.nodes import Node, NodeKind, cpu, gpu, switch
from repro.topology.machine import MachineTopology
from repro.topology.builder import TopologyBuilder
from repro.topology.dgx1 import dgx1_topology
from repro.topology.dgx2 import dgx2_topology
from repro.topology.dgx_station import dgx_station_topology
from repro.topology.multinode import multi_node_dgx1, node_of
from repro.topology.routes import Route, RouteEnumerator

#: Machine builders by name (the CLI's ``--machine`` choices).
MACHINES: dict[str, Callable[[], MachineTopology]] = {
    "dgx1": dgx1_topology,
    "dgx2": dgx2_topology,
    "dgx-station": dgx_station_topology,
    "dgx1x2": lambda: multi_node_dgx1(2),
    "dgx1x4": lambda: multi_node_dgx1(4),
}

__all__ = [
    "LinkSpec",
    "LinkType",
    "MACHINES",
    "MachineTopology",
    "Node",
    "NodeKind",
    "Route",
    "RouteEnumerator",
    "TopologyBuilder",
    "cpu",
    "dgx1_topology",
    "dgx2_topology",
    "dgx_station_topology",
    "effective_bandwidth",
    "gpu",
    "multi_node_dgx1",
    "node_of",
    "switch",
    "transfer_time",
]
