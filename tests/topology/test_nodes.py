"""Node value-object semantics."""

import pytest

from repro.topology import Node, NodeKind, cpu, gpu, switch


def test_constructors_set_kind():
    assert gpu(3).kind is NodeKind.GPU
    assert switch(1).kind is NodeKind.SWITCH
    assert cpu(0).kind is NodeKind.CPU


def test_value_equality_and_hashing():
    assert gpu(2) == gpu(2)
    assert gpu(2) != gpu(3)
    assert gpu(2) != switch(2)
    assert len({gpu(1), gpu(1), switch(1)}) == 2


def test_string_form():
    assert str(gpu(5)) == "gpu5"
    assert str(switch(0)) == "sw0"
    assert str(cpu(1)) == "cpu1"


def test_kind_predicates():
    assert gpu(0).is_gpu
    assert not cpu(0).is_gpu and not switch(0).is_gpu


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        gpu(-1)


def test_nodes_are_orderable():
    assert sorted([gpu(2), gpu(0), gpu(1)]) == [gpu(0), gpu(1), gpu(2)]
