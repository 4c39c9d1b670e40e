"""Front-door plumbing: the `calibration` config key and CLI flags."""

import json

import pytest

from repro.api import load_cluster
from repro.api.config import builder_from_config
from repro.bench.cli import main
from repro.core.calibration import CalibrationController
from repro.util.errors import ConfigurationError


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


class TestConfigKey:
    def test_true_arms_defaults(self):
        cluster = load_cluster(paper_config(calibration=True))
        assert isinstance(cluster.calibration, CalibrationController)
        assert cluster.calibration.detector.min_samples == 3
        assert cluster.calibration.detector.cooldown == 300.0

    def test_false_is_off(self):
        cluster = load_cluster(paper_config(calibration=False))
        assert cluster.calibration is None
        assert cluster.hooks.subscribers == ()
        for engine in cluster.engines.values():
            assert engine.calib is None

    def test_absent_is_off(self):
        cluster = load_cluster(paper_config())
        assert cluster.calibration is None

    def test_dict_threads_the_knobs(self):
        cluster = load_cluster(
            paper_config(calibration={"min_samples": 5, "cooldown": 500.0})
        )
        calib = cluster.calibration
        assert calib.detector.min_samples == 5
        assert calib.detector.cooldown == 500.0

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown calibration"):
            builder_from_config(paper_config(calibration={"turbo": 9000}))

    def test_removed_knobs_rejected(self):
        """Only min_samples and cooldown are settings; the rest of the
        loop runs on module constants."""
        removed = {
            "alpha": 0.3,
            "auto_resample": False,
            "blend": 0.5,
            "clamp_frac": 0.75,
            "clear_threshold": 0.05,
            "confidence_scale": 0.5,
            "drift_threshold": 0.15,
            "ladder_knobs": {"dwell": 200.0},
            "resample_repetitions": 1,
        }
        with pytest.raises(ConfigurationError) as err:
            builder_from_config(paper_config(calibration=removed))
        assert str(err.value) == (
            f"unknown calibration keys {sorted(removed)}; "
            "known: ['cooldown', 'min_samples']"
        )

    def test_non_dict_non_bool_rejected(self):
        with pytest.raises(ConfigurationError, match="calibration"):
            builder_from_config(paper_config(calibration="yes please"))

    def test_roundtrips_through_a_json_file(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(
            json.dumps(paper_config(calibration={"min_samples": 2}))
        )
        cluster = load_cluster(str(path))
        assert cluster.calibration.detector.min_samples == 2


class TestCliVerb:
    def test_listed_in_help(self, capsys):
        """The CAL experiment is the calibration artefact's front door."""
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "CAL" in capsys.readouterr().out

    def test_chaos_accepts_the_silent_flags(self, capsys):
        assert main(["chaos", "--seeds", "2", "--silent", "--calibration"]) == 0
        out = capsys.readouterr().out
        assert "0 violation" in out or "violations: 0" in out
