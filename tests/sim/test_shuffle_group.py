"""ShuffleGroup: the one byte-conservation rule every shuffle driver uses."""

from types import SimpleNamespace

import pytest

from repro.routing import DirectPolicy
from repro.sim import Fabric, FlowMatrix, ShuffleConfig, ShuffleGroup, SimulationError

MB = 1024 * 1024
GPUS = (0, 1, 2, 3)


class _Books:
    """Stand-in crash coordinator: which GPUs crashed, what survivors are owed."""

    def __init__(self, crashed, expected):
        self.crashed_gpus = frozenset(crashed)
        self.expected = expected

    def expected_live_bytes(self):
        return self.expected


@pytest.fixture
def group(dgx1):
    fabric = Fabric(dgx1, ShuffleConfig(injection_rate=None, consume_rate=None))
    flows = FlowMatrix.all_to_all(GPUS, 4 * MB)
    return ShuffleGroup(fabric, GPUS, flows, DirectPolicy())


def _set_delivered(group, per_gpu):
    for gpu_id, nbytes in per_gpu.items():
        group.nodes[gpu_id].stats.delivered_bytes = nbytes
    group.delivered_bytes = sum(per_gpu.values())


class TestHealthy:
    def test_complete_run_conserves_bytes(self, group):
        group.start()
        group.fabric.engine.run()
        assert group.delivered_bytes == group.flows.total_bytes
        assert group.packets_delivered > 0
        assert group.elapsed > 0.0
        group.check_conservation()

    def test_shortfall_raises(self, group):
        group.delivered_bytes = group.flows.total_bytes - 1
        with pytest.raises(SimulationError, match="shuffle stalled"):
            group.check_conservation()

    def test_duplicate_bytes_are_excused_exactly(self, group):
        group.integrity = SimpleNamespace(dup_payload_bytes=100)
        group.delivered_bytes = group.flows.total_bytes + 100
        group.check_conservation()
        group.delivered_bytes += 1
        with pytest.raises(SimulationError, match="shuffle stalled"):
            group.check_conservation()

    def test_query_name_prefixes_the_error(self, group):
        group.query = "q7"
        with pytest.raises(SimulationError, match="^query 'q7': shuffle stalled"):
            group.check_conservation()


class TestCrashed:
    """Survivors must receive what they are owed: no less, and no more
    than the excused duplicate bytes."""

    @pytest.fixture
    def crashed(self, group):
        group.coordinator = _Books(crashed={3}, expected=3000)
        return group

    def test_exact_delivery_passes(self, crashed):
        # The crashed GPU's own bytes never count toward survivors.
        _set_delivered(crashed, {0: 1000, 1: 1000, 2: 1000, 3: 777})
        crashed.check_conservation()

    def test_under_delivery_raises(self, crashed):
        _set_delivered(crashed, {0: 1000, 1: 1000, 2: 999, 3: 5000})
        with pytest.raises(SimulationError, match="crash recovery lost data"):
            crashed.check_conservation()

    def test_over_delivery_beyond_duplicates_raises(self, crashed):
        crashed.integrity = SimpleNamespace(dup_payload_bytes=50)
        _set_delivered(crashed, {0: 1000, 1: 1000, 2: 1051, 3: 0})
        with pytest.raises(SimulationError, match="crash recovery lost data"):
            crashed.check_conservation()

    def test_duplicate_allowance_passes_exactly(self, crashed):
        crashed.integrity = SimpleNamespace(dup_payload_bytes=50)
        _set_delivered(crashed, {0: 1000, 1: 1000, 2: 1050, 3: 0})
        crashed.check_conservation()

    def test_over_delivery_without_duplicates_raises(self, crashed):
        _set_delivered(crashed, {0: 1000, 1: 1000, 2: 1001, 3: 0})
        with pytest.raises(SimulationError, match="crash recovery lost data"):
            crashed.check_conservation()
