"""Edge-path tests for strategies: corners the figure-level tests skip."""

import pytest

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core import MessageStatus, TransferMode
from repro.core.strategies import (
    HeteroSplitStrategy,
    RoundRobinStrategy,
    SingleRailStrategy,
)
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return default_profiles()


def build(strategy, profiles, rails=("myri10g", "quadrics")):
    return (
        ClusterBuilder.paper_testbed(strategy=strategy, rails=rails)
        .sampling(profiles=profiles)
        .build()
    )


class TestRoundRobinEdges:
    def test_rdv_data_also_alternates(self, profiles):
        cluster = build("round_robin", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        rails = []
        for i in range(3):
            b.irecv(tag=i)
            m = a.isend("node1", 1 * MiB, tag=i)
            cluster.run()
            rails.append(m.rails_used[0].split(".")[1])
        assert len(set(rails)) == 2  # both rails appear across the stream

    def test_oversized_eager_on_its_turn_goes_rendezvous(self, profiles):
        """A message too big for the chosen rail's eager limit falls to
        rendezvous instead of crashing."""
        cluster = build(RoundRobinStrategy(rdv_threshold=256 * KiB), profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 128 * KiB)  # > 64 KiB eager limit
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        assert m.mode is TransferMode.RENDEZVOUS


class TestSingleRailEdges:
    def test_threshold_override_forces_rendezvous(self, profiles):
        cluster = build(
            SingleRailStrategy(rail="myri10g", rdv_threshold=1 * KiB), profiles
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 2 * KiB)
        cluster.run()
        assert m.mode is TransferMode.RENDEZVOUS

    def test_threshold_override_keeps_small_eager(self, profiles):
        cluster = build(
            SingleRailStrategy(rail="myri10g", rdv_threshold=1 * KiB), profiles
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 512)
        cluster.run()
        assert m.mode is TransferMode.EAGER

    def test_nic_name_selector(self, profiles):
        """Rails are selectable by NIC name, not only technology."""
        cluster = build(SingleRailStrategy(rail="quadrics1"), profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 1 * MiB)
        cluster.run()
        assert m.rails_used == ("node0.quadrics1",)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleRailStrategy(rdv_threshold=0)


class TestTcpAggregation:
    def test_no_gather_scatter_pays_memcpy(self, profiles):
        """On TCP (no gather/scatter) aggregation stages a host copy; the
        aggregate send still completes and the app core paid for it."""
        from repro.core.sampling import ProfileStore
        from repro.networks import rail_profile

        tcp_profiles = ProfileStore.sample_rails([rail_profile("tcp")])
        cluster = (
            ClusterBuilder.paper_testbed(strategy="aggregate", rails=("tcp",))
            .sampling(profiles=tcp_profiles)
            .build()
        )
        a = cluster.session("node0")
        m1 = a.isend("node1", 4 * KiB, tag=1)
        m2 = a.isend("node1", 4 * KiB, tag=2)
        cluster.run()
        assert m2.msg_id in m1.aggregated_with
        core = cluster.machines["node0"].cores[0]
        staging = 8 * KiB / cluster.machines["node0"].memcpy_rate
        assert core.busy_time > staging  # copy + post + PIO


class TestHeteroSplitEdges:
    def test_single_rail_cluster_never_splits(self, profiles):
        from repro.core.sampling import ProfileStore
        from repro.networks import rail_profile

        mono = ProfileStore.sample_rails([rail_profile("myri10g")])
        cluster = (
            ClusterBuilder.paper_testbed(strategy="hetero_split", rails=("myri10g",))
            .sampling(profiles=mono)
            .build()
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 4 * MiB)
        cluster.run()
        assert m.rails_used == ("node0.myri10g0",)

    def test_three_heterogeneous_rails_all_used(self, profiles):
        from repro.core.sampling import ProfileStore
        from repro.networks import rail_profile

        tri = ProfileStore.sample_rails(
            [
                rail_profile("myri10g"),
                rail_profile("quadrics"),
                rail_profile("infiniband"),
            ]
        )
        cluster = (
            ClusterBuilder.paper_testbed(
                strategy=HeteroSplitStrategy(rdv_threshold=32 * KiB),
                rails=("myri10g", "quadrics", "infiniband"),
            )
            .sampling(profiles=tri)
            .build()
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 8 * MiB)
        cluster.run()
        assert len(m.rails_used) == 3
        assert sum(m.chunk_sizes) == 8 * MiB

    def test_zero_max_rails_rejected(self):
        with pytest.raises(ConfigurationError):
            HeteroSplitStrategy(max_rails=0)
