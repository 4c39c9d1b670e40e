"""Config + builder tests for the fabric and collectives sections."""

import pytest

from repro.api import ClusterBuilder, Fabric, builder_from_config, load_cluster
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.networks.switch import FatTreeSwitch, Switch
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def profiles():
    return default_profiles()


TWO_NODE_WIRE = {
    "strategy": "hetero_split",
    "fabric": {
        "nodes": 2,
        "rails": [
            {"driver": "myri10g", "kind": "wire"},
            {"driver": "quadrics", "kind": "wire"},
        ],
    },
}


class TestFabricConfig:
    def test_two_node_wire_fabric_matches_paper_testbed(self, profiles):
        """The documented default fabric is bit-identical to the classic
        nodes+rails paper testbed."""

        def ping(cluster):
            a, b = cluster.session("node0"), cluster.session("node1")
            b.irecv(source="node0")
            a.isend("node1", "4M")
            cluster.run()
            return cluster.sim.now

        classic = (
            ClusterBuilder.paper_testbed(strategy="hetero_split")
            .sampling(profiles=profiles)
            .build()
        )
        declarative = (
            builder_from_config(TWO_NODE_WIRE)
            .sampling(profiles=profiles)
            .build()
        )
        assert ping(classic) == ping(declarative)

    def test_fabric_remembered_on_cluster(self, profiles):
        cluster = (
            builder_from_config(TWO_NODE_WIRE)
            .sampling(profiles=profiles)
            .build()
        )
        assert cluster.fabric is not None
        assert cluster.fabric.nodes == ("node0", "node1")

    def test_fabric_with_nodes_or_rails_rejected(self):
        bad = dict(TWO_NODE_WIRE)
        bad["nodes"] = [{"name": "node0"}]
        with pytest.raises(ConfigurationError) as exc:
            builder_from_config(bad)
        assert "one or the other" in str(exc.value)

    def test_switch_fabric_materializes_switches(self, profiles):
        cluster = load_cluster(
            {
                "fabric": {
                    "nodes": 4,
                    "rails": [{"driver": "myri10g", "kind": "switch"}],
                }
            }
        )
        wire = cluster.machines["node0"].nics[0].wire
        assert type(wire) is Switch
        assert len(wire.ports) == 4

    def test_fat_tree_fabric_materializes_fat_tree(self):
        cluster = load_cluster(
            {
                "fabric": {
                    "nodes": 4,
                    "rails": [
                        {
                            "driver": "myri10g",
                            "kind": "fat_tree",
                            "pod_size": 2,
                            "spines": 2,
                        }
                    ],
                }
            }
        )
        wire = cluster.machines["node0"].nics[0].wire
        assert isinstance(wire, FatTreeSwitch)
        assert wire.pod_size == 2
        assert wire.spines == 2

    def test_bad_fabric_section_rejected(self):
        with pytest.raises(ConfigurationError):
            builder_from_config({"fabric": {"nodes": 2, "rails": []}})


class TestCollectivesConfig:
    def test_collectives_flow_into_worlds(self, profiles):
        config = dict(TWO_NODE_WIRE)
        config["collectives"] = {"alltoall": "ring", "bcast": "auto"}
        cluster = (
            builder_from_config(config).sampling(profiles=profiles).build()
        )
        assert cluster.collectives == {"alltoall": "ring", "bcast": "auto"}
        world = MpiWorld.from_cluster(cluster)
        assert world.collectives == {"alltoall": "ring", "bcast": "auto"}

    def test_unknown_algorithm_rejected_with_choices(self):
        config = dict(TWO_NODE_WIRE)
        config["collectives"] = {"alltoall": "butterfly"}
        with pytest.raises(ConfigurationError) as exc:
            builder_from_config(config)
        msg = str(exc.value)
        assert "butterfly" in msg and "ring" in msg

    def test_non_dict_collectives_rejected(self):
        config = dict(TWO_NODE_WIRE)
        config["collectives"] = ["ring"]
        with pytest.raises(ConfigurationError):
            builder_from_config(config)


class TestBuilderFabric:
    def test_builder_accepts_fabric_object_and_dict(self, profiles):
        for spec in (Fabric.flat(3), Fabric.flat(3).to_dict()):
            cluster = (
                ClusterBuilder("hetero_split")
                .fabric(spec)
                .sampling(profiles=profiles)
                .build()
            )
            assert sorted(cluster.engines) == ["node0", "node1", "node2"]

    def test_builder_rejects_non_fabric(self):
        with pytest.raises(ConfigurationError):
            ClusterBuilder("hetero_split").fabric(42)

    def test_from_cluster_rank_order_follows_fabric(self, profiles):
        fabric = Fabric.flat(3).with_node_names(["c", "a", "b"])
        cluster = (
            ClusterBuilder("hetero_split")
            .fabric(fabric)
            .sampling(profiles=profiles)
            .build()
        )
        world = MpiWorld.from_cluster(cluster)
        assert [world.node_name(r) for r in range(3)] == ["c", "a", "b"]

    def test_from_cluster_without_fabric_follows_add_node_order(self, profiles):
        """A cluster built node by node, with no fabric description,
        ranks its nodes in the order they were added: ``rank10`` is
        rank 10, not rank 2 as a sorted name list would make it."""
        names = [f"rank{i}" for i in range(12)]
        builder = ClusterBuilder("hetero_split")
        for name in names:
            builder.add_node(name)
        cluster = builder.add_switch("myri10g", names).sampling(
            profiles=profiles
        ).build()
        assert cluster.fabric is None
        world = MpiWorld.from_cluster(cluster)
        assert [world.node_name(r) for r in range(12)] == names
        assert world.comm(10).session.node == "rank10"

    def test_from_cluster_unknown_node_rejected(self, profiles):
        cluster = (
            ClusterBuilder("hetero_split")
            .fabric(Fabric.flat(3))
            .sampling(profiles=profiles)
            .build()
        )
        with pytest.raises(ConfigurationError):
            MpiWorld.from_cluster(cluster, node_names=["node0", "ghost"])

    def test_world_create_fabric_size_mismatch_rejected(self, profiles):
        with pytest.raises(ConfigurationError):
            MpiWorld.create(4, fabric=Fabric.flat(8), profiles=profiles)
