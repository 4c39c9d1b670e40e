"""FallbackLadder: hysteretic transitions, dwell, one step per update."""

from repro.core.calibration import FallbackLadder, TrustLevel
from repro.core.calibration.ladder import DWELL, FULL_ENTER, FULL_EXIT


class TestTransitions:
    def test_starts_full(self):
        assert FallbackLadder().level is TrustLevel.FULL

    def test_walks_down_one_step_at_a_time(self):
        lad = FallbackLadder()
        assert lad.update(0.0, now=0.0) is TrustLevel.PARTIAL
        assert lad.update(0.0, now=DWELL) is TrustLevel.SINGLE

    def test_collapse_cannot_skip_partial(self):
        """Even zero confidence moves FULL only to PARTIAL in one call."""
        lad = FallbackLadder()
        assert lad.update(0.0, now=0.0) is TrustLevel.PARTIAL

    def test_walks_back_up_through_partial(self):
        lad = FallbackLadder()
        lad.update(0.0, now=0.0)
        lad.update(0.0, now=DWELL)
        assert lad.level is TrustLevel.SINGLE
        assert lad.update(1.0, now=2 * DWELL) is TrustLevel.PARTIAL
        assert lad.update(1.0, now=3 * DWELL) is TrustLevel.FULL

    def test_hysteresis_band_holds_the_level(self):
        """Between FULL_EXIT and FULL_ENTER nothing moves, either way."""
        between = (FULL_EXIT + FULL_ENTER) / 2
        lad = FallbackLadder()
        assert lad.update(between, now=0.0) is TrustLevel.FULL
        lad.update(0.0, now=100.0)
        assert lad.level is TrustLevel.PARTIAL
        # between >= PARTIAL_ENTER but < FULL_ENTER: stays PARTIAL.
        assert lad.update(between, now=100.0 + DWELL) is TrustLevel.PARTIAL
        assert lad.update(FULL_ENTER, now=100.0 + 2 * DWELL) is TrustLevel.FULL

    def test_dwell_blocks_back_to_back_transitions(self):
        lad = FallbackLadder()
        lad.update(0.0, now=0.0)
        assert lad.update(0.0, now=DWELL / 2) is TrustLevel.PARTIAL
        assert lad.update(0.0, now=DWELL - 0.1) is TrustLevel.PARTIAL
        assert lad.update(0.0, now=DWELL) is TrustLevel.SINGLE

    def test_transitions_are_logged(self):
        lad = FallbackLadder()
        lad.update(0.0, now=5.0)
        assert lad.transitions == [
            (5.0, TrustLevel.FULL, TrustLevel.PARTIAL, 0.0)
        ]


class TestValidation:
    def test_trust_levels_are_ordered(self):
        assert TrustLevel.SINGLE < TrustLevel.PARTIAL < TrustLevel.FULL
