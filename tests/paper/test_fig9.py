"""FIG9 — splitting small messages, equation-(1) estimation (paper Fig. 9).

Validation contract: splitting loses below ~4 KiB (the offloading cost TO
dominates), wins above, and reaches a ~25–40 % latency reduction by
64 KiB (paper: "up to 30 %").
"""

import pytest

from repro.bench.experiments import fig9
from repro.util.units import KiB


@pytest.fixture(scope="module")
def result(experiment):
    return experiment("FIG9")


def test_fig9_regeneration(result):
    assert set(result.labels) == {fig9.MYRI, fig9.QUAD, fig9.ESTIMATE}


class TestFig9Shape:
    def test_split_costly_below_4k(self, result):
        for i, size in enumerate(result.x_sizes):
            if size > 4 * KiB:
                break
            best_single = min(result[fig9.MYRI].at(i), result[fig9.QUAD].at(i))
            assert result[fig9.ESTIMATE].at(i) > best_single, (
                f"estimate should lose at {size}B"
            )

    def test_split_wins_from_8k_up(self, result):
        for i, size in enumerate(result.x_sizes):
            if size < 8 * KiB:
                continue
            best_single = min(result[fig9.MYRI].at(i), result[fig9.QUAD].at(i))
            assert result[fig9.ESTIMATE].at(i) < best_single, (
                f"estimate should win at {size}B"
            )

    def test_reduction_at_64k_in_paper_band(self, result):
        col = result.column(64 * KiB)
        reduction = 1.0 - col[fig9.ESTIMATE] / col[fig9.MYRI]
        assert 0.25 <= reduction <= 0.42  # paper: up to ~30 %

    def test_estimate_never_better_than_perfect_parallelism(self, result):
        """Lower bound: a chunk pair cannot beat the no-overhead ideal of
        perfectly parallel rails."""
        for i, size in enumerate(result.x_sizes):
            myri = result[fig9.MYRI].at(i)
            quad = result[fig9.QUAD].at(i)
            ideal = 1.0 / (1.0 / myri + 1.0 / quad)
            assert result[fig9.ESTIMATE].at(i) >= ideal

    def test_to_term_visible_at_tiny_sizes(self, result):
        """At 4 B the estimate is ≈ TO above the faster rail's latency."""
        col = result.column(4)
        floor = min(col[fig9.MYRI], col[fig9.QUAD])
        assert col[fig9.ESTIMATE] == pytest.approx(
            floor + fig9.OFFLOAD_COST_US, abs=0.5
        )
