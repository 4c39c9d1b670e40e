"""Tests for the command-line experiment runner."""

import pytest

from repro.bench.cli import main


class TestList:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("FIG3", "FIG4", "FIG8", "FIG9", "T1", "T2", "A1", "S1"):
            assert key in out


class TestRun:
    def test_run_fig8_prints_table(self, capsys):
        assert main(["run", "FIG8"]) == 0
        out = capsys.readouterr().out
        assert "Hetero-split" in out
        assert "MB/s" in out or "bandwidth" in out

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "fig3"]) == 0
        assert "greedy balancing" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "FIG99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_csv_dump(self, tmp_path, capsys):
        path = tmp_path / "fig8.csv"
        assert main(["run", "FIG8", "--csv", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("size_bytes,")
        assert len(lines) >= 5
        assert "csv written" in capsys.readouterr().out

    def test_csv_with_all_rejected(self, tmp_path, capsys):
        assert main(["run", "all", "--csv", str(tmp_path / "x.csv")]) == 2
        assert "single experiment" in capsys.readouterr().err

    def test_csv_on_non_sweep_rejected(self, tmp_path, capsys):
        assert main(["run", "T1", "--csv", str(tmp_path / "x.csv")]) == 2
        assert "not sweep-shaped" in capsys.readouterr().err

    def test_json_dash_prints_only_the_payload(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        from repro.bench.experiments import degraded

        monkeypatch.chdir(tmp_path)
        assert main(["run", "DEG", "--json", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == degraded.run().payload()
        assert "DEG:" in captured.err  # the table moves to stderr
        assert list(tmp_path.iterdir()) == []

    def test_json_with_all_rejected(self, tmp_path, capsys):
        assert main(["run", "all", "--json", str(tmp_path / "x.json")]) == 2
        assert "single experiment" in capsys.readouterr().err

    def test_json_without_payload_rejected(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        assert main(["run", "FIG8", "--json", str(path)]) == 2
        assert "no JSON payload" in capsys.readouterr().err
        assert not path.exists()


class TestSweep:
    def test_adhoc_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--sizes",
                    "64K,1M",
                    "--strategies",
                    "hetero_split",
                    "--metric",
                    "bandwidth",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hetero_split" in out
        assert "64K" in out and "1M" in out

    def test_bad_size_rejected(self, capsys):
        assert main(["sweep", "--sizes", "64Q"]) == 2
        assert "bad --sizes" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, capsys):
        assert main(["sweep", "--strategies", "teleport"]) == 2
        assert "unknown strategy" in capsys.readouterr().err


class TestMetricsCommand:
    def test_prints_counters_and_gauges(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "engine.node0.messages_sent" in out
        assert "nic.node0.myri10g0.utilization" in out

    def test_json_to_stdout_is_parseable(self, capsys):
        import json

        assert main(["metrics", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert set(payload) == {"counters", "gauges", "histograms"}

    def test_json_and_trace_files(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        mpath = tmp_path / "metrics.json"
        tpath = tmp_path / "trace.json"
        assert main(
            ["metrics", "--json", str(mpath), "--trace", str(tpath)]
        ) == 0
        assert json.loads(mpath.read_text())["counters"]
        trace = json.loads(tpath.read_text())
        assert validate_chrome_trace(trace) == []

    def test_faults_variant_reports_retries(self, capsys):
        assert main(["metrics", "--faults"]) == 0
        out = capsys.readouterr().out
        assert "faults.fired" in out


class TestAccuracyCommand:
    def test_fault_free_error_is_tiny(self, capsys):
        import json

        assert main(["accuracy", "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert "prediction accuracy" in out
        payload = json.loads(out[out.index("{"):])
        for stats in payload["per_rail"].values():
            assert stats["transfer"]["mean_abs_rel_error"] < 1e-6

    def test_faults_variant_shows_error(self, capsys):
        import json

        assert main(["accuracy", "--faults", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        degraded = payload["per_rail"]["node0.myri10g0"]["transfer"]
        assert degraded["mean_abs_rel_error"] > 1e-8


class TestChaosFanOut:
    def test_jobs_artifact_matches_serial_byte_for_byte(self, tmp_path, capsys):
        a = tmp_path / "serial.json"
        b = tmp_path / "sharded.json"
        assert main(["chaos", "--seeds", "4", "--artifact", str(a)]) == 0
        assert (
            main(
                ["chaos", "--seeds", "4", "--jobs", "2", "--artifact", str(b)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[2 workers]" in out
        assert a.read_bytes() == b.read_bytes()

    def test_bad_seed_spec_rejected(self, capsys):
        assert main(["chaos", "--seeds", "many"]) == 2
        assert "bad --seeds" in capsys.readouterr().err
