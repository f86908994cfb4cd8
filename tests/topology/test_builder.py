"""TopologyBuilder validation and wiring."""

import pytest

from repro.topology import LinkType, NodeKind, TopologyBuilder
from repro.topology.machine import TopologyError


def test_build_minimal_machine(tiny_machine):
    assert tiny_machine.num_gpus == 2
    assert tiny_machine.nvlink_between(0, 1) is not None


def test_bidirectional_links_created(tiny_machine):
    forward = tiny_machine.nvlink_between(0, 1)
    backward = tiny_machine.nvlink_between(1, 0)
    assert forward is not None and backward is not None
    assert forward.link_id != backward.link_id


def test_duplicate_node_rejected():
    builder = TopologyBuilder("dup")
    builder.add_gpus(1)
    with pytest.raises(TopologyError):
        builder.add_gpus(1)


def test_link_before_node_rejected():
    builder = TopologyBuilder("early")
    builder.add_gpus(1)
    with pytest.raises(TopologyError):
        builder.add_nvlink(0, 1)


def test_disconnected_gpu_rejected():
    builder = TopologyBuilder("island")
    builder.add_gpus(3)
    builder.add_switch(0, socket=0)
    builder.attach_gpu_to_switch(0, 0)
    builder.attach_gpu_to_switch(1, 0)
    # GPU 2 has no link at all.
    with pytest.raises(TopologyError):
        builder.build()


def test_switch_auto_creates_socket():
    builder = TopologyBuilder("auto")
    builder.add_gpus(2)
    builder.add_switch(0, socket=0)
    builder.attach_gpu_to_switch(0, 0)
    builder.attach_gpu_to_switch(1, 0)
    machine = builder.build()
    uplinks = [
        link for link in machine.links
        if link.link_type is LinkType.PCIE and link.src.kind is NodeKind.SWITCH
    ]
    assert uplinks  # switch -> cpu uplink exists


def test_empty_topology_rejected():
    with pytest.raises(TopologyError):
        TopologyBuilder("empty").build()


def test_cross_socket_machine_needs_qpi():
    builder = TopologyBuilder("two-socket")
    builder.add_gpus(2)
    builder.add_switch(0, socket=0)
    builder.add_switch(1, socket=1)
    builder.attach_gpu_to_switch(0, 0)
    builder.attach_gpu_to_switch(1, 1)
    with pytest.raises(TopologyError):
        builder.build()  # no QPI: GPUs cannot reach each other
    builder.add_qpi(0, 1)
    machine = builder.build()
    path = machine.direct_path(0, 1)
    assert any(link.link_type is LinkType.QPI for link in path)
