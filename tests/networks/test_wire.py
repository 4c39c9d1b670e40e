"""Unit tests for Wire wiring rules and duplexing."""

import pytest

from repro.hardware import Machine
from repro.networks import ElanDriver, MxDriver, Nic, Transfer, TransferKind, Wire
from repro.util.errors import ConfigurationError


class TestWiring:
    def test_peer_of(self, sim):
        a, b = Machine(sim, "a"), Machine(sim, "b")
        na, nb = Nic(a, MxDriver()), Nic(b, MxDriver())
        w = Wire(na, nb)
        assert w.peer_of(na) is nb
        assert w.peer_of(nb) is na

    def test_peer_of_foreign_nic_rejected(self, sim):
        a, b, c = Machine(sim, "a"), Machine(sim, "b"), Machine(sim, "c")
        w = Wire(Nic(a, MxDriver()), Nic(b, MxDriver()))
        stranger = Nic(c, MxDriver())
        with pytest.raises(ConfigurationError):
            w.peer_of(stranger)

    def test_mixed_technologies_rejected(self, sim):
        a, b = Machine(sim, "a"), Machine(sim, "b")
        with pytest.raises(ConfigurationError):
            Wire(Nic(a, MxDriver()), Nic(b, ElanDriver()))

    def test_same_machine_rejected(self, sim):
        a = Machine(sim, "a")
        with pytest.raises(ConfigurationError):
            Wire(Nic(a, MxDriver()), Nic(a, MxDriver()))

    def test_double_wiring_rejected(self, sim):
        a, b, c = Machine(sim, "a"), Machine(sim, "b"), Machine(sim, "c")
        na = Nic(a, MxDriver())
        Wire(na, Nic(b, MxDriver()))
        with pytest.raises(ConfigurationError):
            Wire(na, Nic(c, MxDriver()))

    def test_self_wire_rejected(self, sim):
        a = Machine(sim, "a")
        na = Nic(a, MxDriver())
        with pytest.raises(ConfigurationError):
            Wire(na, na)

    def test_path_alive_needs_both_ends_up(self, sim):
        a, b = Machine(sim, "a"), Machine(sim, "b")
        na, nb = Nic(a, MxDriver()), Nic(b, MxDriver())
        w = Wire(na, nb)
        assert w.path_alive(na, "b") and w.path_alive(nb, "a")
        assert not w.path_alive(na, "c")
        nb.fail()
        assert not w.path_alive(na, "b")
        assert not w.path_alive(nb, "a")


class TestDuplex:
    def test_both_directions_carry_simultaneously(self, sim):
        """Full duplex: A→B and B→A do not serialize on the wire."""
        a, b = Machine(sim, "a"), Machine(sim, "b")
        na, nb = Nic(a, MxDriver()), Nic(b, MxDriver())
        Wire(na, nb)
        size = 1 << 20
        t_ab = Transfer(kind=TransferKind.RDV_DATA, size=size, msg_id=1)
        t_ba = Transfer(kind=TransferKind.RDV_DATA, size=size, msg_id=2)
        na.submit(t_ab, a.cores[0])
        nb.submit(t_ba, b.cores[0])
        sim.run()
        # Identical pipelines in both directions => identical delivery times.
        assert t_ab.t_delivered == pytest.approx(t_ba.t_delivered)
