"""Tests for the shared-switch fabric: wiring, cut-through, incast."""

import pytest

from repro.hardware import Machine
from repro.networks import Nic, Switch, Transfer, TransferKind, rail_profile
from repro.util.errors import ConfigurationError, ProtocolError


def make_star(sim, n_nodes=3, profile=rail_profile("myri10g"), latency=0.3):
    switch = Switch(name="sw", switch_latency=latency)
    machines = [Machine(sim, f"node{i}") for i in range(n_nodes)]
    for m in machines:
        switch.attach(Nic(m, profile, name="port"))
    return switch, machines


def rdv(size, dst, msg_id=0):
    return Transfer(kind=TransferKind.RDV_DATA, size=size, msg_id=msg_id, dst_node=dst)


class TestWiring:
    def test_attach_and_peers(self, sim):
        switch, machines = make_star(sim)
        nic0 = machines[0].nics[0]
        peers = switch.peers_of(nic0)
        assert len(peers) == 2
        assert all(p.machine is not machines[0] for p in peers)

    def test_mixed_technologies_rejected(self, sim):
        switch, machines = make_star(sim, 2)
        stranger = Machine(sim, "odd")
        with pytest.raises(ConfigurationError):
            switch.attach(Nic(stranger, rail_profile("quadrics")))

    def test_double_wiring_rejected(self, sim):
        switch, machines = make_star(sim, 2)
        with pytest.raises(ConfigurationError):
            Switch().attach(machines[0].nics[0])

    def test_peer_of_two_ports_degenerates_to_wire(self, sim):
        switch, machines = make_star(sim, 2)
        assert switch.peer_of(machines[0].nics[0]).machine is machines[1]

    def test_peer_of_many_ports_rejected(self, sim):
        switch, machines = make_star(sim, 3)
        with pytest.raises(ConfigurationError):
            switch.peer_of(machines[0].nics[0])

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            Switch(switch_latency=-1.0)

    def test_foreign_nic_rejected(self, sim):
        switch, machines = make_star(sim, 2)
        stranger_machine = Machine(sim, "x")
        stranger = Nic(stranger_machine, rail_profile("myri10g"))
        with pytest.raises(ConfigurationError):
            switch.peers_of(stranger)

    def test_node_attached_twice_rejected(self, sim):
        """One port per node: a second NIC of an attached node would
        give it a route to itself through the switch."""
        switch, machines = make_star(sim, 2)
        second = Nic(machines[0], rail_profile("myri10g"), name="port2")
        with pytest.raises(ConfigurationError, match="already has a port"):
            switch.attach(second)
        assert second.wire is None
        assert len(switch.ports) == 2

    @pytest.mark.parametrize("kind", ["add_switch", "add_fat_tree"])
    def test_builder_rejects_a_node_listed_twice(self, kind):
        from repro.api import ClusterBuilder

        builder = ClusterBuilder(strategy="single_rail")
        builder.add_node("node0").add_node("node1")
        with pytest.raises(ConfigurationError, match="one port per node"):
            getattr(builder, kind)("myri10g", ["node0", "node0", "node1"])

    def test_no_path_to_itself_or_a_stranger(self, sim):
        # Faults vs forwarding: test_fabric_faults.TestPathAliveMatchesForwarding.
        switch, machines = make_star(sim, 2)
        nic0 = machines[0].nics[0]
        assert switch.path_alive(nic0, "node1")
        assert not switch.path_alive(nic0, "node0")
        assert not switch.path_alive(nic0, "atlantis")

    def test_link_targets(self, sim):
        switch, _ = make_star(sim, 3)
        assert switch.link_targets("*") == ["node0", "node1", "node2"]
        assert switch.link_targets("node1") == ["node1"]
        with pytest.raises(ConfigurationError, match="no port"):
            switch.link_targets("node9")


class TestForwarding:
    def test_uncontended_costs_only_switch_latency(self, sim):
        """Cut-through: vs a wire, a lone transfer pays the switch latency
        instead of the wire latency — not a second store-and-forward."""
        switch, machines = make_star(sim, 2, latency=0.3)
        size = 1 << 20
        t = rdv(size, "node1")
        machines[0].nics[0].submit(t, machines[0].cores[0])
        sim.run()
        p = machines[0].nics[0].profile
        expected = p.rdv_send_cpu() + p.rdv_nic_time(size) + 0.3
        assert t.t_delivered == pytest.approx(expected, abs=0.01)

    def test_incast_serializes_at_output_port(self, sim):
        """Two senders to one receiver share its port: the second packet
        drains after the first (the classic incast effect)."""
        switch, machines = make_star(sim, 3)
        size = 1 << 20
        t1 = rdv(size, "node2", msg_id=1)
        t2 = rdv(size, "node2", msg_id=2)
        machines[0].nics[0].submit(t1, machines[0].cores[0])
        machines[1].nics[0].submit(t2, machines[1].cores[0])
        sim.run()
        rate = machines[0].nics[0].profile.dma_rate
        first, second = sorted([t1.t_delivered, t2.t_delivered])
        assert second >= first + size / rate * 0.95
        assert switch.contended_packets == 1

    def test_disjoint_destinations_do_not_contend(self, sim):
        switch, machines = make_star(sim, 3)
        size = 1 << 20
        t1 = rdv(size, "node1", msg_id=1)  # from node0
        t2 = rdv(size, "node0", msg_id=2)  # from node2
        machines[0].nics[0].submit(t1, machines[0].cores[0])
        machines[2].nics[0].submit(t2, machines[2].cores[0])
        sim.run()
        assert t1.t_delivered == pytest.approx(t2.t_delivered)
        assert switch.contended_packets == 0

    def test_missing_destination_rejected(self, sim):
        switch, machines = make_star(sim, 3)
        t = Transfer(kind=TransferKind.RDV_DATA, size=64, msg_id=0)
        with pytest.raises(ConfigurationError):
            # 3-port switch cannot infer the peer for a blank destination.
            machines[0].nics[0].submit(t, machines[0].cores[0])

    def test_unknown_destination_rejected(self, sim):
        switch, machines = make_star(sim, 3)
        t = rdv(64, "atlantis")
        machines[0].nics[0].submit(t, machines[0].cores[0])
        with pytest.raises(ProtocolError):
            sim.run()

    def test_counters(self, sim):
        switch, machines = make_star(sim, 2)
        machines[0].nics[0].submit(rdv(1024, "node1", 1), machines[0].cores[0])
        machines[1].nics[0].submit(rdv(1024, "node0", 2), machines[1].cores[0])
        sim.run()
        assert switch.packets_forwarded == 2


class TestSwitchedCluster:
    """End-to-end through the engine and builder."""

    @pytest.fixture(scope="class")
    def profiles(self):
        from repro.core.sampling import ProfileStore

        return ProfileStore.sample_rails([rail_profile("infiniband")])

    def build(self, profiles, n=3):
        from repro.api import ClusterBuilder

        builder = ClusterBuilder(strategy="single_rail")
        for i in range(n):
            builder.add_node(f"node{i}")
        builder.add_switch("infiniband", [f"node{i}" for i in range(n)])
        return builder.sampling(profiles=profiles).build()

    def test_any_pair_communicates(self, profiles):
        cluster = self.build(profiles)
        for src, dst in (("node0", "node1"), ("node1", "node2"), ("node2", "node0")):
            cluster.session(dst).irecv(source=src)
            msg = cluster.session(src).isend(dst, 256 * 1024)
            cluster.run()
            assert msg.t_complete is not None, f"{src}->{dst}"

    def test_incast_halves_per_flow_bandwidth(self, profiles):
        """Two nodes sending 2 MiB each to node2 through one switch take
        ~2x one transfer's time (port-bound), unlike dedicated rails."""
        size = 2 << 20
        cluster = self.build(profiles)
        cluster.session("node2").irecv(source="node0")
        lone = cluster.session("node0").isend("node2", size)
        cluster.run()
        lone_time = lone.latency

        cluster2 = self.build(profiles)
        cluster2.session("node2").irecv(source="node0")
        cluster2.session("node2").irecv(source="node1")
        m0 = cluster2.session("node0").isend("node2", size)
        m1 = cluster2.session("node1").isend("node2", size)
        cluster2.run()
        both = max(m0.t_complete, m1.t_complete) - m0.t_post
        assert both == pytest.approx(2 * lone_time, rel=0.10)

    def test_mixed_wire_and_switch_fabrics(self, profiles):
        """A node pair joined by BOTH a dedicated rail and a shared
        switch: hetero-split plans over the union."""
        from repro.api import ClusterBuilder
        from repro.core.sampling import ProfileStore

        mixed_profiles = ProfileStore.sample_rails(
            [rail_profile("infiniband"), rail_profile("myri10g")]
        )
        builder = ClusterBuilder(strategy="hetero_split")
        builder.add_node("node0").add_node("node1")
        builder.add_rail("myri10g", "node0", "node1")
        builder.add_switch("infiniband", ["node0", "node1"])
        cluster = builder.sampling(profiles=mixed_profiles).build()
        cluster.session("node1").irecv(source="node0")
        msg = cluster.session("node0").isend("node1", 8 << 20)
        cluster.run()
        assert len(msg.rails_used) == 2
        techs = {r.split(".")[1][:-1] for r in msg.rails_used}
        assert techs == {"myri10g", "infiniband"}

    def test_rendezvous_controls_route_correctly(self, profiles):
        """REQ goes to the receiver, ACK back to the sender — through the
        same shared fabric (destination-addressed, not peer-implied)."""
        cluster = self.build(profiles)
        cluster.session("node1").irecv(source="node0")
        msg = cluster.session("node0").isend("node1", 4 << 20)
        cluster.run()
        kinds = [t.kind.value for t in msg.transfers]
        assert "rdv-req" in kinds and "rdv-ack" in kinds
        assert msg.t_complete is not None