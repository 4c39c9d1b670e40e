"""FIG4 — PIO transfer combinations (paper Fig. 4).

Validation contract: the greedy single-core case never overlaps the two
rails' transmit windows (serialized PIO); the offloaded case does; the
offload dispatch latency equals the paper's TO = 3 µs; offloading beats
the single-core greedy case at the medium eager size.
"""

import pytest

from repro.bench.experiments import fig4


@pytest.fixture(scope="module")
def result(experiment):
    return experiment("FIG4")


def test_fig4_regeneration(result):
    assert set(result.completion) == set(fig4.CASES)


class TestFig4Shape:
    def test_single_core_serializes_rails(self, result):
        assert result.rail_overlap[fig4.CASES[0]] == pytest.approx(0.0, abs=1e-9)
        assert result.copy_overlap[fig4.CASES[0]] == pytest.approx(0.0, abs=1e-9)

    def test_aggregated_uses_one_rail(self, result):
        assert result.rail_overlap[fig4.CASES[1]] == pytest.approx(0.0, abs=1e-9)

    def test_offloaded_overlaps_rails_and_copies(self, result):
        assert result.rail_overlap[fig4.CASES[2]] > 0.5
        assert result.copy_overlap[fig4.CASES[2]] > 0.5

    def test_offloaded_beats_greedy(self, result):
        assert result.completion[fig4.CASES[2]] < result.completion[fig4.CASES[0]]

    def test_offload_dispatch_is_3us(self, result):
        assert result.offload_dispatch_us == pytest.approx(3.0)

    def test_render_mentions_every_case(self, result):
        text = result.render()
        for case in fig4.CASES:
            assert case in text
