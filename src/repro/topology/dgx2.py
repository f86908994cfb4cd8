"""The NVIDIA DGX-2: 16 V100s on an NVSwitch crossbar.

The paper's introduction points at machines with "up to 20" GPUs; the
DGX-2 is the 16-GPU instance.  Unlike the DGX-1's point-to-point cube
mesh, every DGX-2 GPU drives its six NVLink ports into a *switch
fabric* (12 NVSwitch chips, 6 per baseboard, bridged between boards),
giving every GPU pair a full-bandwidth non-blocking path.

We model each baseboard's switch plane as one NVSwitch node: every GPU
attaches with its aggregate 6-link port (150 GB/s per direction), and
the two planes are bridged by the inter-board trunk (48 links,
1200 GB/s per direction).  PCIe and QPI exist for host staging exactly
as on the DGX-1.

This machine is deliberately *boring* for MG-Join: with a crossbar, the
direct route already achieves full bandwidth, there are no GPU-relay
routes to exploit, and adaptive routing degenerates gracefully to
direct routing — a useful negative control for the claim that
MG-Join's gains come from point-to-point topologies.
"""

from __future__ import annotations

from functools import lru_cache

from repro.topology.builder import TopologyBuilder
from repro.topology.machine import MachineTopology
from repro.topology.nodes import switch

#: Index of the first NVSwitch plane node (after the 4 PCIe switches).
_NVSWITCH_BASE = 100


@lru_cache(maxsize=1)
def dgx2_topology() -> MachineTopology:
    """Build the 16-GPU DGX-2 machine."""
    builder = TopologyBuilder("dgx-2")
    builder.add_gpus(16)
    # PCIe: four switches of four GPUs each, two per socket.
    for switch_id in range(4):
        builder.add_switch(switch_id, socket=switch_id // 2)
        for gpu_id in range(switch_id * 4, switch_id * 4 + 4):
            builder.attach_gpu_to_switch(gpu_id, switch_id)
    builder.add_qpi(0, 1)
    # NVSwitch planes: one per baseboard of 8 GPUs.
    for plane in (0, 1):
        builder.add_switch(_NVSWITCH_BASE + plane)
        for gpu_id in range(plane * 8, plane * 8 + 8):
            builder.add_nvlink_to_switch(
                gpu_id, _NVSWITCH_BASE + plane, lanes=6
            )
    # Inter-board trunk: 48 NVLink lanes between the planes.
    builder.add_nvlink_between_switches(
        _NVSWITCH_BASE, _NVSWITCH_BASE + 1, lanes=48
    )
    return builder.build()

