"""CLI tests for the COLL experiment and the topology subcommand."""

import json

from repro.bench.cli import main
from repro.bench.experiments import collectives as C


class TestTopology:
    def test_default_is_paper_testbed(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "fabric: 2 nodes" in out
        assert "wire mesh" in out

    def test_fat_tree_shape(self, capsys):
        assert main(["topology", "--shape", "fat_tree", "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "fabric: 16 nodes" in out
        assert "fat tree" in out
        assert "spine" in out

    def test_flat_shape_with_custom_rails(self, capsys):
        assert (
            main(["topology", "--shape", "flat", "--nodes", "4", "--rails", "myri10g"])
            == 0
        )
        out = capsys.readouterr().out
        assert "flat switch: 4 ports" in out
        assert "quadrics" not in out

    def test_config_with_fabric_section(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        path.write_text(
            json.dumps(
                {
                    "fabric": {
                        "nodes": 4,
                        "rails": [{"driver": "myri10g", "kind": "switch"}],
                    }
                }
            )
        )
        assert main(["topology", "--config", str(path)]) == 0
        assert "flat switch: 4 ports" in capsys.readouterr().out

    def test_config_without_fabric_section(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"nodes": [{"name": "node0"}]}))
        assert main(["topology", "--config", str(path)]) == 2
        assert "no 'fabric' section" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["topology", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCollectivesCommand:
    def test_demo_prints_predictions_and_measurements(self):
        """``cli run COLL`` prints the cost model's 8-rank table after
        the measured race (rendered here at 8 ranks only)."""
        out = C.run(ranks=(8,)).render()
        assert "<- selected" in out  # the cost model's table
        assert "COLL:" in out  # the measured race
        assert "rails" in out

    def test_registry_lists_coll(self, capsys):
        assert main(["list"]) == 0
        assert "COLL" in capsys.readouterr().out
