"""Unit tests for CpuTopology signalling-cost model."""

import pytest

from repro.hardware import CpuTopology
from repro.util.errors import ConfigurationError


class TestLayout:
    def test_paper_testbed_is_dual_dualcore(self):
        topo = CpuTopology.paper_testbed()
        assert topo.sockets == 2
        assert topo.cores_per_socket == 2
        assert topo.total_cores == 4

    def test_socket_of_is_socket_major(self):
        topo = CpuTopology(sockets=2, cores_per_socket=2)
        assert [topo.socket_of(i) for i in range(4)] == [0, 0, 1, 1]

    def test_flat_layout(self):
        topo = CpuTopology.flat(8)
        assert topo.total_cores == 8
        assert all(topo.socket_of(i) == 0 for i in range(8))

    def test_core_id_bounds_checked(self):
        topo = CpuTopology.paper_testbed()
        with pytest.raises(ConfigurationError):
            topo.socket_of(4)
        with pytest.raises(ConfigurationError):
            topo.socket_of(-1)

    def test_degenerate_layouts_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuTopology(sockets=0, cores_per_socket=2)
        with pytest.raises(ConfigurationError):
            CpuTopology(sockets=1, cores_per_socket=0)


class TestSignalCosts:
    def test_paper_costs_are_3_and_6_us(self):
        """§III-D: 3 µs to signal an idle core, 6 µs with preemption,
        on either socket."""
        topo = CpuTopology.paper_testbed()
        assert topo.signal_cost(0, 1) == 3.0
        assert topo.signal_cost(0, 1, preempt=True) == 6.0
        assert topo.signal_cost(0, 2) == 3.0
        assert topo.signal_cost(0, 3, preempt=True) == 6.0

    def test_self_signal_is_free(self):
        topo = CpuTopology.paper_testbed()
        assert topo.signal_cost(2, 2) == 0.0
        assert topo.signal_cost(2, 2, preempt=True) == 0.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuTopology(signal_cost_us=-1.0)
