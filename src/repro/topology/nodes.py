"""Node identities for the machine topology graph.

A node is one of three kinds of hardware endpoints the paper's data
transfers touch:

* ``GPU`` — a compute device with its own global memory,
* ``SWITCH`` — a PCIe switch/bridge shared by a group of GPUs,
* ``CPU`` — a CPU socket whose main memory is used for *staged*
  transfers between GPUs that sit on different sockets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class NodeKind(enum.Enum):
    """The hardware role a topology node plays."""

    GPU = "gpu"
    SWITCH = "sw"
    CPU = "cpu"


@dataclass(frozen=True, order=True)
class Node:
    """An endpoint in the interconnect graph.

    Nodes are value objects: two ``Node(NodeKind.GPU, 3)`` instances are
    interchangeable, hashable and usable as dict keys.
    """

    kind: NodeKind
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"node index must be non-negative, got {self.index}")

    @property
    def is_gpu(self) -> bool:
        return self.kind is NodeKind.GPU

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"

    def __repr__(self) -> str:
        return str(self)


def gpu(index: int) -> Node:
    """Shorthand constructor for a GPU node."""
    return Node(NodeKind.GPU, index)


def switch(index: int) -> Node:
    """Shorthand constructor for a PCIe switch node."""
    return Node(NodeKind.SWITCH, index)


def cpu(index: int) -> Node:
    """Shorthand constructor for a CPU-socket node."""
    return Node(NodeKind.CPU, index)
