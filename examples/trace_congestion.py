#!/usr/bin/env python3
"""Congestion forensics: watch routing policies fight over links.

Runs the same 8-GPU distribution step under direct and adaptive routing
with a link timeline sampler attached, then prints a terminal link×time
utilization heatmap of the busiest links.  Under direct routing the QPI
link is a wall of saturated cells while NVLink links sit idle; the
adaptive policy's map is short and uniformly dense — the Figure 8
story, visualized.

Usage::

    python examples/trace_congestion.py
"""

from repro import (
    AdaptiveArmPolicy,
    DirectPolicy,
    FlowMatrix,
    ShuffleSimulator,
    dgx1_topology,
)
from repro.obs.analyze import LinkTimelineSampler, ascii_heatmap


def main() -> None:
    machine = dgx1_topology()
    gpu_ids = machine.gpu_ids
    flows = FlowMatrix.all_to_all(gpu_ids, 512 * 1024 * 1024)

    for policy in (DirectPolicy(), AdaptiveArmPolicy()):
        sampler = LinkTimelineSampler()
        report = ShuffleSimulator(machine, gpu_ids, sampler=sampler).run(
            flows, policy
        )
        print(f"=== {policy.name}: {report.elapsed * 1e3:.1f} ms, "
              f"{report.throughput / 1e9:.0f} GB/s, "
              f"{report.bisection_utilization * 100:.0f}% bisection ===")
        print(ascii_heatmap(sampler.timeline(num_buckets=64), top=10))


if __name__ == "__main__":
    main()
