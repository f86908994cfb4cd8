"""The GPU kernel cost model and its calibration anchors."""

from dataclasses import replace

import pytest

from repro.sim import GpuComputeModel, V100
from repro.sim.compute import GpuSpec


def test_v100_parameters_match_paper():
    """§5.1: 80 SMs at 1.53 GHz, 32 GB HBM at 900 GB/s."""
    assert V100.num_sms == 80
    assert V100.clock_hz == pytest.approx(1.53e9)
    assert V100.memory_bandwidth == pytest.approx(900e9)
    assert V100.memory_bytes == 32 * 1024**3


def test_times_scale_linearly_with_input():
    model = GpuComputeModel()
    small = model.partition_time(1_000_000) - V100.kernel_launch_overhead
    large = model.partition_time(4_000_000) - V100.kernel_launch_overhead
    assert large == pytest.approx(4 * small)


def test_zero_tuples_costs_only_launch():
    model = GpuComputeModel()
    assert model.histogram_time(0) == 0.0 or model.histogram_time(0) <= (
        V100.kernel_launch_overhead
    )


def test_partition_passes_multiply():
    model = GpuComputeModel()
    one = model.partition_time(1_000_000, passes=1)
    three = model.partition_time(1_000_000, passes=3)
    assert three == pytest.approx(3 * one)


def test_negative_inputs_rejected():
    model = GpuComputeModel()
    with pytest.raises(ValueError):
        model.partition_time(-1)
    with pytest.raises(ValueError):
        model.partition_time(10, passes=-1)
    with pytest.raises(ValueError):
        model.page_fault_time(10, num_gpus=0)


def test_probe_counts_matches_in_cost():
    model = GpuComputeModel()
    no_matches = model.probe_time(1e6, 1e6, 0)
    many_matches = model.probe_time(1e6, 1e6, 1e6)
    assert many_matches > no_matches


def test_page_fault_cost_grows_with_gpu_count():
    """§2.1: page-table lock contention scales with GPU count."""
    model = GpuComputeModel()
    one = model.page_fault_time(1 << 30, num_gpus=1)
    eight = model.page_fault_time(1 << 30, num_gpus=8)
    assert eight > 3 * one


def test_page_fault_zero_bytes_is_free():
    assert GpuComputeModel().page_fault_time(0, num_gpus=8) == 0.0


def test_cycles_conversion():
    model = GpuComputeModel()
    assert model.cycles(1.0) == pytest.approx(V100.clock_hz * V100.num_sms)


def test_spec_overrides():
    slower = replace(V100, memory_bandwidth=450e9)
    fast_model = GpuComputeModel()
    slow_model = GpuComputeModel(spec=slower)
    assert slow_model.partition_time(1e6) > fast_model.partition_time(1e6)


def test_single_gpu_join_rate_calibration():
    """The whole pipeline (hist + 2 partition passes + probe) for 1B
    tuples should land near the paper's ~3-4 B tuples/s single-GPU
    operating point (Figure 11)."""
    model = GpuComputeModel()
    tuples = 1 << 30
    total = (
        model.histogram_time(tuples)
        + model.partition_time(tuples, passes=2)
        + model.probe_time(tuples / 2, tuples / 2, tuples / 2)
    )
    throughput = tuples / total
    assert 2.5e9 <= throughput <= 5.0e9
