"""FIG8 — message splitting bandwidth (paper Fig. 8).

Validation contract: hetero-split > iso-split > best single rail at every
size; plateaus within 10 % of the paper's 1170 / 837 / 1670 / 1987 MB/s;
hetero-split within a few % of the theoretical aggregate.
"""

import pytest

from repro.bench.experiments import fig8
from repro.util.units import MiB


@pytest.fixture(scope="module")
def result(experiment):
    return experiment("FIG8")


def test_fig8_regeneration(result):
    assert set(result.labels) == {fig8.MYRI, fig8.QUAD, fig8.ISO, fig8.HETERO}


class TestFig8Shape:
    def test_strategy_ordering_at_every_size(self, result):
        for i, size in enumerate(result.x_sizes):
            myri = result[fig8.MYRI].at(i)
            quad = result[fig8.QUAD].at(i)
            iso = result[fig8.ISO].at(i)
            hetero = result[fig8.HETERO].at(i)
            assert quad < myri, f"rail ordering broken at {size}"
            assert myri < iso, f"iso should beat single rails at {size}"
            assert iso < hetero, f"hetero should beat iso at {size}"

    @pytest.mark.parametrize(
        "label", [fig8.MYRI, fig8.QUAD, fig8.ISO, fig8.HETERO]
    )
    def test_plateaus_match_paper_within_10pct(self, result, label):
        measured = result.column(8 * MiB)[label]
        assert measured == pytest.approx(fig8.PAPER_PLATEAUS[label], rel=0.10)

    def test_hetero_close_to_theoretical_aggregate(self, result):
        from repro.networks import rail_profile
        from repro.util.units import bytes_per_us_to_mbps

        theoretical = bytes_per_us_to_mbps(
            rail_profile("myri10g").dma_rate + rail_profile("quadrics").dma_rate
        )
        measured = result.column(8 * MiB)[fig8.HETERO]
        assert measured > 0.95 * theoretical

    def test_iso_split_speedup_over_myri_near_1p43(self, result):
        """Paper: 1670 / 1170 ≈ 1.43 at the plateau."""
        col = result.column(8 * MiB)
        assert col[fig8.ISO] / col[fig8.MYRI] == pytest.approx(1.43, abs=0.08)

    def test_hetero_speedup_over_myri_near_1p7(self, result):
        """Paper: 1987 / 1170 ≈ 1.70 at the plateau."""
        col = result.column(8 * MiB)
        assert col[fig8.HETERO] / col[fig8.MYRI] == pytest.approx(1.70, abs=0.10)

    def test_bandwidth_monotone_in_size(self, result):
        for series in result.series:
            assert all(
                a <= b + 1e-9 for a, b in zip(series.values, series.values[1:])
            ), f"{series.label} bandwidth should grow with size"
