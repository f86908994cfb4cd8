"""Shared sampled runs for the analyzer tests.

One skewed 8-GPU shuffle per policy, run once per session: the
timeline, attribution and regret tests all read from the same recorded
run instead of re-simulating.
"""

from __future__ import annotations

import pytest

from repro.bench.regression import skewed_flows
from repro.obs.analyze import ObservedRun
from repro.routing import AdaptiveArmPolicy, DirectPolicy
from repro.sim import ShuffleSimulator

MB = 1024 * 1024


class SampledRun(ObservedRun):
    """One observed + sampled shuffle and everything it recorded."""

    def __init__(self, machine, policy):
        super().__init__()
        self.machine = machine
        gpu_ids = tuple(machine.gpu_ids)[:8]
        self.report = ShuffleSimulator(machine, gpu_ids, **self.wiring).run(
            skewed_flows(gpu_ids, gpu_ids[0], 24 * MB, 4 * MB), policy
        )


@pytest.fixture(scope="session")
def adaptive_run(dgx1):
    return SampledRun(dgx1, AdaptiveArmPolicy())


@pytest.fixture(scope="session")
def direct_run(dgx1):
    return SampledRun(dgx1, DirectPolicy())
