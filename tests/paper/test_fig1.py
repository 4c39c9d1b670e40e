"""FIG1 — the placement schematic as measured timelines (paper Fig. 1).

Validation contract: equal-time chunking (c) finishes the 4-message
stream first and leaves the two rails ending (nearly) together; the
whole-message (a) and equal-size (b) placements strand one rail for a
long tail.
"""

import pytest

from repro.bench.experiments import fig1


@pytest.fixture(scope="module")
def result(experiment):
    return experiment("FIG1")


def test_fig1_regeneration(result):
    assert set(result.completion) == set(fig1.CASES)


class TestFig1Shape:
    def test_equal_time_chunks_finish_first(self, result):
        c = result.completion[fig1.CASES[2]]
        assert c < result.completion[fig1.CASES[0]]
        assert c < result.completion[fig1.CASES[1]]

    def test_equal_time_chunks_end_rails_together(self, result):
        assert result.rail_end_gap[fig1.CASES[2]] < 20.0

    def test_other_placements_strand_a_rail(self, result):
        assert result.rail_end_gap[fig1.CASES[0]] > 200.0
        assert result.rail_end_gap[fig1.CASES[1]] > 200.0

    def test_charts_render_both_rails(self, result):
        for case in fig1.CASES:
            assert "nic:myri10g0" in result.charts[case]
            assert "nic:quadrics1" in result.charts[case]

    def test_render_mentions_every_case(self, result):
        text = result.render()
        for case in fig1.CASES:
            assert case in text
