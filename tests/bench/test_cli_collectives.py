"""CLI tests for the collectives and topology subcommands."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.experiments import collectives as C
from repro.bench.runners import repo_root


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
    def test_requires_a_flag(self, capsys):
        assert main(["collectives"]) == 2
        assert "--demo" in capsys.readouterr().err

    def test_demo_prints_predictions_and_measurements(self, capsys):
        assert main(["collectives", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "<- selected" in out  # the cost model's table
        assert "COLL:" in out  # the measured race
        assert "rails" in out

    def test_registry_lists_coll(self, capsys):
        assert main(["list"]) == 0
        assert "COLL" in capsys.readouterr().out


def _committed(name):
    return json.loads((repo_root() / name).read_text())


@pytest.fixture(scope="module")
def skewed():
    return C.skewed_table()


class TestPerfstatsTrajectory:
    """The collective numbers the BENCH_PR7/PR8 trajectory committed.
    They are simulated time, so a fresh run must match them exactly."""

    def test_pr7_payload_stays_committed(self):
        """BENCH_PR7.json must stay in the tree: the obs-off equality
        test below re-measures against its rows."""
        assert _committed("BENCH_PR7.json")["pr"] == 7

    def test_committed_payload_meets_acceptance(self):
        """The committed baseline carries the acceptance numbers:
        a classic schedule beats naive at 8/32/128 ranks, and the RailS
        balancer beats uniform striping on the skewed matrix."""
        payload = _committed("BENCH_PR8.json")
        assert payload["pr"] == 8
        for row in payload["alltoall_flat_switch"]:
            speedups = row["speedup_vs_naive"]
            assert max(speedups["ring"], speedups["doubling"]) > 1.0
        assert payload["skewed_alltoallv_fat_tree"]["mean_speedup"] > 1.0

    def test_simulated_metrics_reproduce_exactly(self, skewed):
        """The 8-rank makespans and both speedups equal BENCH_PR8.json's
        ``current`` section, bit for bit."""
        committed = _committed("BENCH_PR8.json")["current"]
        size = C.ALLTOALL_SIZES[8]
        naive = C.measure_alltoall(8, size, "naive")
        ring = C.measure_alltoall(8, size, "ring")
        assert naive == committed["alltoall_naive_8r_us"]
        assert ring == committed["alltoall_ring_8r_us"]
        assert naive / ring == committed["alltoall_ring_speedup_8r"]
        assert (
            skewed["mean_speedup"]
            == committed["alltoall_rails_skew_speedup_8r"]
        )

    def test_obs_off_tables_match_bench_pr7(self, skewed):
        """The 8-rank alltoall row and the skewed alltoallv table
        serialize byte-equal to the rows BENCH_PR7.json committed."""
        pr7 = _committed("BENCH_PR7.json")
        committed = [r for r in pr7["alltoall_flat_switch"] if r["ranks"] == 8]
        fresh = C.alltoall_table(ranks=(8,))
        assert json.dumps(fresh, sort_keys=True) == json.dumps(
            committed, sort_keys=True
        )
        assert json.dumps(skewed, sort_keys=True) == json.dumps(
            pr7["skewed_alltoallv_fat_tree"], sort_keys=True
        )
