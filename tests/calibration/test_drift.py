"""DriftDetector: EWMA math, hysteresis, evidence gate, cooldown."""

import pytest

from repro.core.calibration import DriftDetector
from repro.core.calibration.drift import (
    ALPHA,
    CLEAR_THRESHOLD,
    CONFIDENCE_SCALE,
    DRIFT_THRESHOLD,
)
from repro.util.errors import ConfigurationError


def detector(**kw):
    kw.setdefault("min_samples", 2)
    kw.setdefault("cooldown", 100.0)
    return DriftDetector(**kw)


class TestEwma:
    def test_first_sample_seeds_the_ewma_directly(self):
        d = detector()
        d.observe("r", "1M", 0.4, now=0.0)
        assert d.band_error("r", "1M") == 0.4

    def test_later_samples_blend_by_alpha(self):
        d = detector()
        d.observe("r", "1M", 0.4, now=0.0)
        d.observe("r", "1M", 0.0, now=1.0)
        assert d.band_error("r", "1M") == pytest.approx((1.0 - ALPHA) * 0.4)

    def test_bands_are_independent(self):
        d = detector()
        d.observe("r", "1M", 0.9, now=0.0)
        assert d.band_error("r", "4M") == 0.0

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigurationError):
            detector().observe("r", "1M", -0.1, now=0.0)


class TestTrigger:
    def test_needs_min_samples(self):
        d = detector(min_samples=3)
        assert d.observe("r", "1M", 0.9, now=0.0) is False
        assert d.observe("r", "1M", 0.9, now=1.0) is False
        assert d.observe("r", "1M", 0.9, now=2.0) is True

    def test_no_retrigger_while_drifting(self):
        """Hysteresis: once drifting, further high errors stay silent."""
        d = detector(min_samples=1)
        assert d.observe("r", "1M", 0.9, now=0.0) is True
        for t in range(1, 20):
            assert d.observe("r", "1M", 0.9, now=1000.0 * t) is False

    def test_clears_only_below_clear_threshold(self):
        d = detector(min_samples=1)
        assert d.observe("r", "1M", 0.2, now=0.0) is True
        # One zero error pulls the EWMA below DRIFT_THRESHOLD but not
        # below CLEAR_THRESHOLD: still drifting, still silent.
        assert d.observe("r", "1M", 0.0, now=200.0) is False
        assert CLEAR_THRESHOLD < d.band_error("r", "1M") < DRIFT_THRESHOLD
        assert d.snapshot()["r"]["1M"]["drifting"] is True
        now = 200.0
        while d.band_error("r", "1M") >= CLEAR_THRESHOLD:
            now += 100.0
            assert d.observe("r", "1M", 0.0, now=now) is False
        assert d.snapshot()["r"]["1M"]["drifting"] is False
        # ... and a fresh excursion can trigger again (cooldown passed).
        assert d.observe("r", "1M", 0.9, now=now + 100.0) is True

    def test_cooldown_suppresses_same_rail(self):
        d = detector(min_samples=1, cooldown=100.0)
        assert d.observe("r", "1M", 0.9, now=0.0) is True
        # A different band of the SAME rail crosses inside the cooldown.
        assert d.observe("r", "4M", 0.9, now=50.0) is False
        # Another rail is unaffected by r's cooldown.
        assert d.observe("q", "1M", 0.9, now=50.0) is True

    def test_never_flaps_on_noise_around_threshold(self):
        """An EWMA oscillating across the enter threshold produces
        exactly one trigger, not a trigger train."""
        d = detector(min_samples=1, cooldown=0.0)
        crossings = 0
        triggers = 0
        for i, err in enumerate([0.2, 0.0, 0.3, 0.0, 0.3, 0.0, 0.3]):
            was_above = d.band_error("r", "1M") > DRIFT_THRESHOLD
            triggers += d.observe("r", "1M", err, now=float(i))
            crossings += was_above != (d.band_error("r", "1M") > DRIFT_THRESHOLD)
        assert crossings == 7  # every observation crosses it
        assert triggers == 1


class TestConfidence:
    def test_fresh_rail_scores_one(self):
        assert detector().confidence("never-seen") == 1.0

    def test_worst_band_drives_the_score(self):
        d = detector()
        d.observe("r", "1M", 0.1, now=0.0)
        d.observe("r", "4M", 0.25, now=0.0)
        assert d.confidence("r") == pytest.approx(1.0 - 0.25 / CONFIDENCE_SCALE)

    def test_clamped_at_zero(self):
        d = detector()
        d.observe("r", "1M", 5.0, now=0.0)
        assert d.confidence("r") == 0.0

    def test_reset_rail_restores_trust_but_keeps_cooldown(self):
        d = detector(min_samples=1, cooldown=1000.0)
        assert d.observe("r", "1M", 0.9, now=0.0) is True
        d.reset_rail("r")
        assert d.confidence("r") == 1.0
        assert d.rails() == []
        # Stale-profile errors still streaming in must not re-trigger
        # inside the cooldown window.
        assert d.observe("r", "1M", 0.9, now=10.0) is False


class TestValidation:
    # The ids are the ones these cases had while the list also held the
    # alpha cases (kw0, kw1), which went with the alpha setting.
    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param({"min_samples": 0}, id="kw2"),
            pytest.param({"cooldown": -1.0}, id="kw3"),
        ],
    )
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            DriftDetector(**kw)
