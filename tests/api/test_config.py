"""Tests for declarative cluster configuration."""

import json
import textwrap

import pytest

from repro.api import config as config_module
from repro.api import load_cluster
from repro.api.config import builder_from_config
from repro.bench.runners import default_profiles
from repro.core import MessageStatus
from repro.util.errors import ConfigurationError
from repro.util.units import MiB


def paper_config(**extra):
    config = {
        "strategy": "hetero_split",
        "nodes": [
            {"name": "node0", "sockets": 2, "cores_per_socket": 2},
            {"name": "node1", "sockets": 2, "cores_per_socket": 2},
        ],
        "rails": [
            {"driver": "myri10g", "between": ["node0", "node1"]},
            {"driver": "quadrics", "between": ["node0", "node1"]},
        ],
    }
    config.update(extra)
    return config


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("profiles") / "profiles.json"
    default_profiles().save(path)
    return str(path)


class TestLoadCluster:
    def test_paper_testbed_from_dict(self, profile_file):
        cluster = load_cluster(
            paper_config(sampling={"profile_file": profile_file})
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        msg = a.isend("node1", 1 * MiB)
        cluster.run()
        assert msg.status is MessageStatus.COMPLETE
        assert len(msg.rails_used) == 2

    def test_from_json_file(self, tmp_path, profile_file):
        path = tmp_path / "cluster.json"
        path.write_text(
            json.dumps(paper_config(sampling={"profile_file": profile_file}))
        )
        cluster = load_cluster(str(path))
        assert sorted(cluster.machines) == ["node0", "node1"]

    def test_driver_overrides_applied(self, profile_file):
        config = paper_config(sampling=True)
        config["rails"][0]["overrides"] = {"wire_latency": 9.0}
        cluster = load_cluster(config)
        assert cluster.machines["node0"].nics[0].profile.wire_latency == 9.0

    def test_per_node_strategy(self, profile_file):
        cluster = load_cluster(
            paper_config(
                per_node_strategy={"node1": "greedy"},
                sampling={"profile_file": profile_file},
            )
        )
        assert cluster.engine("node0").strategy.name == "hetero_split"
        assert cluster.engine("node1").strategy.name == "greedy"

    def test_per_node_strategy_for_unknown_node_rejected(self, profile_file):
        config = paper_config(
            per_node_strategy={"nod1": "greedy"},
            sampling={"profile_file": profile_file},
        )
        with pytest.raises(
            ConfigurationError,
            match=r"unknown node\(s\) \['nod1'\]; known: \['node0', 'node1'\]",
        ):
            load_cluster(config)

    def test_options_forwarded(self, profile_file):
        cluster = load_cluster(
            paper_config(
                options={"multicore_rx": True},
                sampling={"profile_file": profile_file},
            )
        )
        eng = cluster.engine("node0")
        assert eng.pioman.multicore_rx

    def test_topology_from_config(self, profile_file):
        config = paper_config(sampling={"profile_file": profile_file})
        config["nodes"][0]["cores_per_socket"] = 4
        cluster = load_cluster(config)
        assert len(cluster.machines["node0"].cores) == 8

    @pytest.mark.parametrize(
        "costs",
        [
            {"signal_cost_us": 9.0},
            {"preempt_cost_us": 12.0},
            {"signal_cost_us": 9.0, "preempt_cost_us": 12.0},
        ],
    )
    def test_signal_costs_without_layout(self, costs, profile_file):
        """A cost alone builds the topology, on the 2 x 2 layout."""
        config = paper_config(sampling={"profile_file": profile_file})
        config["nodes"][0] = {"name": "node0", **costs}
        cluster = load_cluster(config)
        topology = cluster.machines["node0"].topology
        assert topology.signal_cost_us == costs.get("signal_cost_us", 3.0)
        assert topology.preempt_cost_us == costs.get("preempt_cost_us", 6.0)
        assert (topology.sockets, topology.cores_per_socket) == (2, 2)
        assert len(cluster.machines["node0"].cores) == 4


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            builder_from_config(paper_config(flux_capacitor=True))

    def test_missing_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            builder_from_config({"rails": []})

    def test_missing_rails_rejected(self):
        config = paper_config()
        config["rails"] = []
        with pytest.raises(ConfigurationError, match="rails"):
            builder_from_config(config)

    def test_nameless_node_rejected(self):
        config = paper_config()
        config["nodes"][0] = {"sockets": 2}
        with pytest.raises(ConfigurationError, match="without a name"):
            builder_from_config(config)

    def test_malformed_rail_rejected(self):
        config = paper_config()
        config["rails"][0] = {"driver": "myri10g", "between": ["node0"]}
        with pytest.raises(ConfigurationError, match="rail entry"):
            builder_from_config(config)

    @pytest.mark.parametrize("technology", ["myri10", 5])
    def test_unknown_technology_rejected(self, technology):
        config = paper_config()
        config["rails"][0]["driver"] = technology
        with pytest.raises(
            ConfigurationError, match=f"unknown rail technology {technology!r}"
        ):
            load_cluster(config)

    @pytest.mark.parametrize(
        "extra",
        [{"strategy": "teleport"}, {"per_node_strategy": {"node1": "teleport"}}],
        ids=["strategy", "per_node_strategy"],
    )
    def test_unknown_strategy_rejected(self, extra, profile_file):
        config = paper_config(sampling={"profile_file": profile_file}, **extra)
        with pytest.raises(
            ConfigurationError,
            match="unknown strategy 'teleport'; known: adaptive, aggregate, ",
        ):
            load_cluster(config)

    def test_misspelled_override_rejected(self):
        config = paper_config()
        config["rails"][0]["overrides"] = {"wire_latencyy": 9.0}
        with pytest.raises(
            ConfigurationError,
            match=r"unknown profile field\(s\) wire_latencyy; known: .*wire_latency",
        ):
            load_cluster(config)

    def test_mistyped_override_rejected(self):
        config = paper_config()
        config["rails"][0]["overrides"] = {"dma_rate": "fast"}
        with pytest.raises(
            ConfigurationError, match="dma_rate must be a number, got 'fast'"
        ):
            load_cluster(config)

    def test_bad_sampling_value_rejected(self):
        with pytest.raises(ConfigurationError, match="sampling"):
            builder_from_config(paper_config(sampling="maybe"))

    def test_sampling_false_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match=r"'sampling' must be true or \{'profile_file': \.\.\.\}; got False",
        ):
            builder_from_config(paper_config(sampling=False))

    def test_misspelled_node_key_rejected(self):
        config = paper_config()
        config["nodes"][0] = {
            "name": "node0", "sockets": 2, "cores_per_sockett": 4,
        }
        with pytest.raises(
            ConfigurationError,
            match=r"unknown node keys \['cores_per_sockett'\]; known: .*'cores_per_socket'",
        ):
            builder_from_config(config)

    def test_misspelled_rail_key_rejected(self):
        config = paper_config()
        config["rails"][0]["overides"] = {"wire_latency": 9.0}
        with pytest.raises(
            ConfigurationError,
            match=r"unknown rail keys \['overides'\]; known: .*'overrides'",
        ):
            builder_from_config(config)

    def test_misspelled_option_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match=r"unknown options keys \['multicore_rxx'\]; known: \['multicore_rx'\]",
        ):
            builder_from_config(paper_config(options={"multicore_rxx": True}))

    def test_app_core_option_rejected(self):
        """The application core is always core 0."""
        with pytest.raises(
            ConfigurationError, match=r"unknown options keys \['app_core'\]"
        ):
            builder_from_config(paper_config(options={"app_core": 1}))

    def test_misspelled_sampling_key_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match=r"unknown sampling keys \['profile_fille'\]; known: \['profile_file'\]",
        ):
            builder_from_config(paper_config(sampling={"profile_fille": "p.json"}))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            builder_from_config(str(tmp_path / "ghost.json"))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            builder_from_config(str(path))

    def test_unsupported_version_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported config version"):
            builder_from_config(paper_config(version=99))

    def test_version_one_accepted(self):
        builder_from_config(paper_config(version=1))


def docstring_examples():
    """The JSON examples of the ``repro.api.config`` module docstring:
    each indented block after a ``::``."""
    examples = []
    for part in config_module.__doc__.split("::\n")[1:]:
        block = []
        for line in part.splitlines():
            if line.strip() and not line.startswith(" "):
                break
            block.append(line)
        examples.append(json.loads(textwrap.dedent("\n".join(block))))
    return examples


class TestDocstringExamples:
    """The documented schema and the loader cannot drift apart."""

    def test_both_examples_found(self):
        assert len(docstring_examples()) == 2

    @pytest.mark.parametrize("index", [0, 1], ids=["explicit", "fabric"])
    def test_example_loads(self, index, profile_file):
        config = docstring_examples()[index]
        if "sampling" in config:
            config["sampling"]["profile_file"] = profile_file
        cluster = load_cluster(config)
        assert sorted(cluster.machines) == ["node0", "node1"]


class TestFaultsSection:
    def schedule_dict(self):
        from repro.faults import FaultSchedule

        return FaultSchedule(seed=7).nic_down(
            "node0.myri10g0", at=150.0, duration=2000.0
        ).to_dict()

    def test_faults_config_round_trip(self, profile_file):
        config = paper_config(
            sampling={"profile_file": profile_file},
            faults=self.schedule_dict(),
            resilience={"timeout": "200us", "max_retries": 4},
        )
        cluster = load_cluster(config)
        assert cluster.fault_injector is not None
        assert cluster.fault_injector.schedule.to_dict() == self.schedule_dict()
        eng = cluster.engine("node0")
        assert eng.timeout == 200.0
        assert eng.max_retries == 4
        # the built cluster actually survives the scheduled outage
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        msg = a.isend("node1", "4M")
        result = cluster.run()
        assert msg.status is MessageStatus.COMPLETE
        assert result.faults_fired == 2

    def test_faulty_config_runs_are_deterministic(self, profile_file):
        def run_once():
            config = paper_config(
                sampling={"profile_file": profile_file},
                faults=self.schedule_dict(),
                resilience={"timeout": "200us"},
            )
            cluster = load_cluster(config)
            a, b = cluster.sessions("node0", "node1")
            b.irecv(source="node0")
            msg = a.isend("node1", "4M")
            result = cluster.run()
            return msg.t_complete, result.events_processed

        assert run_once() == run_once()

    def test_bad_faults_section_rejected(self):
        with pytest.raises(ConfigurationError, match="faults"):
            builder_from_config(paper_config(faults=["not", "a", "dict"]))
        with pytest.raises(ConfigurationError, match="unknown faults keys"):
            builder_from_config(paper_config(faults={"surprise": 1}))

    def test_backoff_keys_rejected(self):
        for key in ("backoff_base", "backoff_factor", "backoff_max"):
            with pytest.raises(ConfigurationError, match="unknown resilience keys"):
                builder_from_config(
                    paper_config(resilience={"timeout": "200us", key: 2.0})
                )

    def test_bad_resilience_section_rejected(self):
        with pytest.raises(ConfigurationError, match="resilience"):
            builder_from_config(paper_config(resilience="fast please"))
        with pytest.raises(ConfigurationError, match="unknown resilience keys"):
            builder_from_config(paper_config(resilience={"retry_hard": True}))
