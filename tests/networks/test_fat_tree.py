"""Tests for the two-stage fat-tree switch: pods, spines, contention."""

import pytest

from repro.hardware import Machine
from repro.networks import Nic, Transfer, TransferKind
from repro.networks import rail_profile
from repro.networks.switch import FatTreeSwitch, Switch
from repro.util.errors import ConfigurationError


def make_tree(sim, n_nodes=4, pod_size=2, spines=2, latency=0.3):
    switch = FatTreeSwitch(
        name="ft", switch_latency=latency, pod_size=pod_size, spines=spines
    )
    machines = [Machine(sim, f"node{i}") for i in range(n_nodes)]
    for m in machines:
        switch.attach(Nic(m, rail_profile("myri10g"), name="port"))
    return switch, machines


def rdv(size, dst, msg_id=0):
    return Transfer(
        kind=TransferKind.RDV_DATA, size=size, msg_id=msg_id, dst_node=dst
    )


class TestShape:
    def test_pods_follow_attach_order(self, sim):
        switch, machines = make_tree(sim, n_nodes=6, pod_size=2)
        pods = [switch.pod_of(m.nics[0]) for m in machines]
        assert pods == [0, 0, 1, 1, 2, 2]

    def test_foreign_nic_rejected(self, sim):
        switch, _ = make_tree(sim)
        stranger = Nic(Machine(sim, "x"), rail_profile("myri10g"))
        with pytest.raises(ConfigurationError):
            switch.pod_of(stranger)

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            FatTreeSwitch(pod_size=0)
        with pytest.raises(ConfigurationError):
            FatTreeSwitch(spines=0)

    def test_spine_hash_is_static_per_pod_pair(self, sim):
        switch, _ = make_tree(sim, n_nodes=8, pod_size=2, spines=2)
        # Same (src pod, dst pod) always hashes to the same spine.
        assert switch._spine_for(0, 2) == switch._spine_for(1, 3)
        assert switch._spine_for(0, 2) == switch._spine_for(0, 3)

    def test_spine_targets(self, sim):
        switch, _ = make_tree(sim, spines=3)
        assert switch.spine_targets("spine*") == [0, 1, 2]
        assert switch.spine_targets("*") == [0, 1, 2]
        assert switch.spine_targets("spine2") == [2]
        with pytest.raises(ConfigurationError, match="spines 0..2"):
            switch.spine_targets("spine3")
        for bad in ("spine", "spinex", "node0"):
            with pytest.raises(ConfigurationError, match="bad spine target"):
                switch.spine_targets(bad)


class TestForwarding:
    def test_intra_pod_matches_flat_switch(self, sim):
        """Same-pod traffic sees exactly the flat-switch path."""
        switch, machines = make_tree(sim, n_nodes=4, pod_size=2)
        size = 1 << 20
        t = rdv(size, "node1")
        machines[0].nics[0].submit(t, machines[0].cores[0])
        sim.run()
        p = machines[0].nics[0].profile
        expected = p.rdv_send_cpu() + p.rdv_nic_time(size) + 0.3
        assert t.t_delivered == pytest.approx(expected, abs=0.01)
        assert switch.intra_pod_packets == 1
        assert switch.inter_pod_packets == 0

    def test_inter_pod_pays_two_extra_stage_latencies(self, sim):
        """Uncontended inter-pod = intra-pod + 2 x switch_latency
        (edge -> spine -> edge, cut-through)."""
        switch, machines = make_tree(sim, n_nodes=4, pod_size=2, latency=0.3)
        size = 1 << 20
        t = rdv(size, "node2")
        machines[0].nics[0].submit(t, machines[0].cores[0])
        sim.run()
        p = machines[0].nics[0].profile
        flat = p.rdv_send_cpu() + p.rdv_nic_time(size) + 0.3
        assert t.t_delivered == pytest.approx(flat + 0.6, abs=0.01)
        assert switch.inter_pod_packets == 1

    def test_shared_spine_serializes_disjoint_ports(self, sim):
        """Two inter-pod flows to *different* destinations still
        serialize on their hashed spine — the oversubscription a flat
        switch cannot model."""
        switch, machines = make_tree(sim, n_nodes=4, pod_size=2, spines=1)
        size = 1 << 20
        t1 = rdv(size, "node2", msg_id=1)  # node0 -> node2
        t2 = rdv(size, "node3", msg_id=2)  # node1 -> node3
        machines[0].nics[0].submit(t1, machines[0].cores[0])
        machines[1].nics[0].submit(t2, machines[1].cores[0])
        sim.run()
        rate = machines[0].nics[0].profile.dma_rate
        first, second = sorted([t1.t_delivered, t2.t_delivered])
        assert second >= first + size / rate * 0.95
        assert switch.spine_contended_packets == 1
        assert switch.contended_packets == 0  # ports never contended

    def test_disjoint_pod_pairs_ride_disjoint_spines(self, sim):
        switch, machines = make_tree(sim, n_nodes=4, pod_size=2, spines=2)
        size = 1 << 20
        t1 = rdv(size, "node2", msg_id=1)  # pod0 -> pod1
        t2 = rdv(size, "node0", msg_id=2)  # pod1 -> pod0
        machines[0].nics[0].submit(t1, machines[0].cores[0])
        machines[2].nics[0].submit(t2, machines[2].cores[0])
        sim.run()
        assert t1.t_delivered == pytest.approx(t2.t_delivered)
        assert switch.spine_contended_packets == 0
        assert sorted(switch.spine_packets) == [1, 1]

    def test_incast_still_contends_at_output_port(self, sim):
        switch, machines = make_tree(sim, n_nodes=6, pod_size=2, spines=4)
        size = 1 << 20
        # node2 (pod1) and node4 (pod2) both target node0 (pod0).
        t1 = rdv(size, "node0", msg_id=1)
        t2 = rdv(size, "node0", msg_id=2)
        machines[2].nics[0].submit(t1, machines[2].cores[0])
        machines[4].nics[0].submit(t2, machines[4].cores[0])
        sim.run()
        rate = machines[0].nics[0].profile.dma_rate
        first, second = sorted([t1.t_delivered, t2.t_delivered])
        assert second >= first + size / rate * 0.95
        assert switch.contended_packets == 1

    def test_is_a_switch(self, sim):
        switch, _ = make_tree(sim)
        assert isinstance(switch, Switch)

    def test_pod_counts_cover_exactly_the_forwarded_packets(self, sim):
        """A packet discarded at a dead edge link is forwarded nowhere,
        so it counts as neither intra- nor inter-pod."""
        switch, machines = make_tree(sim, n_nodes=4, pod_size=2)
        switch.link_fail("node1")
        sends = [(0, "node1"), (1, "node0"), (1, "node3"), (0, "node2"),
                 (2, "node3"), (3, "node1")]
        for i, (src, dst) in enumerate(sends):
            machines[src].nics[0].submit(
                rdv(4096, dst, msg_id=i), machines[src].cores[0]
            )
        sim.run()
        assert switch.link_dropped_packets == 4
        assert switch.packets_forwarded == 2
        assert switch.intra_pod_packets == 1  # node2 -> node3
        assert switch.inter_pod_packets == 1  # node0 -> node2
        assert (
            switch.intra_pod_packets + switch.inter_pod_packets
            == switch.packets_forwarded
        )
