"""Unit tests for the Machine node model."""

import pytest

from repro.hardware import CpuTopology, Machine
from repro.simtime import Simulator
from repro.util.errors import ConfigurationError


@pytest.fixture
def sim():
    return Simulator()


class TestConstruction:
    def test_default_is_paper_testbed(self, sim):
        node = Machine(sim, "node0")
        assert len(node.cores) == 4
        assert [c.socket_id for c in node.cores] == [0, 0, 1, 1]

    def test_custom_topology(self, sim):
        node = Machine(sim, "big", topology=CpuTopology.flat(16))
        assert len(node.cores) == 16

    def test_bad_memcpy_rate_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            Machine(sim, "x", memcpy_rate=0.0)


class TestCoreQueries:
    def test_all_cores_idle_initially(self, sim):
        node = Machine(sim, "node0")
        assert node.idle_cores() == node.cores

    def test_busy_core_excluded(self, sim):
        node = Machine(sim, "node0")
        node.cores[1].run(10.0)
        assert node.cores[1] not in node.idle_cores()
        assert len(node.idle_cores()) == 3

    def test_exclude_parameter(self, sim):
        node = Machine(sim, "node0")
        rest = node.idle_cores(exclude=node.cores[0])
        assert node.cores[0] not in rest
        assert len(rest) == 3

    def test_memcpy_cost_linear(self, sim):
        node = Machine(sim, "node0", memcpy_rate=1000.0)
        assert node.memcpy_cost(5000) == pytest.approx(5.0)
        assert node.memcpy_cost(0) == 0.0

    def test_negative_memcpy_size_rejected(self, sim):
        node = Machine(sim, "node0")
        with pytest.raises(ConfigurationError):
            node.memcpy_cost(-1)


class TestNicRegistry:
    def test_nic_by_name_missing_raises(self, sim):
        node = Machine(sim, "node0")
        with pytest.raises(ConfigurationError):
            node.nic_by_name("ghost")

    def test_nics_attach_on_construction(self, sim):
        from repro.networks import Nic, rail_profile

        node = Machine(sim, "node0")
        nic = Nic(node, rail_profile("myri10g"), name="mx0")
        assert node.nics == [nic]
        assert node.nic_by_name("mx0") is nic
        assert node.idle_nics() == [nic]
