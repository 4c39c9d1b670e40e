"""Unit tests for Wire wiring rules and duplexing."""

import pytest

from repro.hardware import Machine
from repro.networks import Nic, Transfer, TransferKind, Wire, rail_profile
from repro.util.errors import ConfigurationError


class TestWiring:
    def test_peer_of(self, sim):
        a, b = Machine(sim, "a"), Machine(sim, "b")
        na, nb = Nic(a, rail_profile("myri10g")), Nic(b, rail_profile("myri10g"))
        w = Wire(na, nb)
        assert w.peer_of(na) is nb
        assert w.peer_of(nb) is na

    def test_peer_of_foreign_nic_rejected(self, sim):
        a, b, c = Machine(sim, "a"), Machine(sim, "b"), Machine(sim, "c")
        w = Wire(Nic(a, rail_profile("myri10g")), Nic(b, rail_profile("myri10g")))
        stranger = Nic(c, rail_profile("myri10g"))
        with pytest.raises(ConfigurationError):
            w.peer_of(stranger)

    def test_mixed_technologies_rejected(self, sim):
        a, b = Machine(sim, "a"), Machine(sim, "b")
        with pytest.raises(ConfigurationError):
            Wire(Nic(a, rail_profile("myri10g")), Nic(b, rail_profile("quadrics")))

    def test_same_machine_rejected(self, sim):
        a = Machine(sim, "a")
        with pytest.raises(ConfigurationError):
            Wire(Nic(a, rail_profile("myri10g")), Nic(a, rail_profile("myri10g")))

    def test_double_wiring_rejected(self, sim):
        a, b, c = Machine(sim, "a"), Machine(sim, "b"), Machine(sim, "c")
        na = Nic(a, rail_profile("myri10g"))
        Wire(na, Nic(b, rail_profile("myri10g")))
        with pytest.raises(ConfigurationError):
            Wire(na, Nic(c, rail_profile("myri10g")))

    def test_self_wire_rejected(self, sim):
        a = Machine(sim, "a")
        na = Nic(a, rail_profile("myri10g"))
        with pytest.raises(ConfigurationError):
            Wire(na, na)

    def test_path_alive_needs_both_ends_up(self, sim):
        a, b = Machine(sim, "a"), Machine(sim, "b")
        na, nb = Nic(a, rail_profile("myri10g")), Nic(b, rail_profile("myri10g"))
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
        na, nb = Nic(a, rail_profile("myri10g")), Nic(b, rail_profile("myri10g"))
        Wire(na, nb)
        size = 1 << 20
        t_ab = Transfer(kind=TransferKind.RDV_DATA, size=size, msg_id=1)
        t_ba = Transfer(kind=TransferKind.RDV_DATA, size=size, msg_id=2)
        na.submit(t_ab, a.cores[0])
        nb.submit(t_ba, b.cores[0])
        sim.run()
        # Identical pipelines in both directions => identical delivery times.
        assert t_ab.t_delivered == pytest.approx(t_ba.t_delivered)
