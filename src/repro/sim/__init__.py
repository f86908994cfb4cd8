"""Discrete-event simulation of the multi-GPU machine.

This package is the time-domain substrate of the reproduction: a small
callback-based discrete-event kernel (:mod:`repro.sim.engine`), link
channels with FIFO queueing (:mod:`repro.sim.linksim`), GPU sender /
receiver / relay machinery with DMA-engine limits and credit-managed
routing buffers (:mod:`repro.sim.gpusim`), the shared fabric every flow
group of a run sits on (:mod:`repro.sim.fabric`), the shuffle group and
simulator that run a flow matrix under a routing policy
(:mod:`repro.sim.shuffle`) and the analytic GPU kernel cost model
(:mod:`repro.sim.compute`).
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.integrity import IntegrityStats, PacketTamperer, TransportIntegrity
from repro.sim.resources import RoutingBuffer
from repro.sim.linksim import (
    ARBITRATION_MODES,
    LinkArbiter,
    LinkChannel,
    LinkStateBoard,
)
from repro.sim.compute import GpuComputeModel, GpuSpec, V100
from repro.sim.fabric import Fabric
from repro.sim.recovery import CrashCoordinator, RecoveryConfig, RetryPolicy
from repro.sim.shuffle import FlowMatrix, ShuffleConfig, ShuffleGroup, ShuffleSimulator
from repro.sim.stats import LinkStats, RecoveryStats, ShuffleReport, bisection_cut

__all__ = [
    "ARBITRATION_MODES",
    "CrashCoordinator",
    "Engine",
    "Fabric",
    "FlowMatrix",
    "GpuComputeModel",
    "GpuSpec",
    "IntegrityStats",
    "LinkArbiter",
    "LinkChannel",
    "LinkStateBoard",
    "LinkStats",
    "PacketTamperer",
    "RecoveryConfig",
    "RecoveryStats",
    "RetryPolicy",
    "RoutingBuffer",
    "ShuffleConfig",
    "ShuffleGroup",
    "ShuffleReport",
    "ShuffleSimulator",
    "SimulationError",
    "TransportIntegrity",
    "V100",
    "bisection_cut",
]
