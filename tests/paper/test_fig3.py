"""FIG3 — greedy balancing vs aggregation (paper Fig. 3).

Validation contract: dynamically balancing two eager segments over the
two rails from a single core is *worse* than aggregating them onto the
fastest rail throughout the small-message range, with the curves
converging at the right edge (16 KiB).
"""

import pytest

from repro.bench.experiments import fig3


@pytest.fixture(scope="module")
def result(experiment):
    return experiment("FIG3")


def test_fig3_regeneration(result):
    assert result.x_sizes == list(fig3.SIZES)
    assert set(result.labels) == {fig3.AGG_MYRI, fig3.AGG_QUAD, fig3.BALANCED}


class TestFig3Shape:
    def test_balanced_loses_across_small_sizes(self, result):
        """The headline claim of §II-C, for every size up to 8 KiB."""
        for i, size in enumerate(result.x_sizes):
            if size > 8 * 1024:
                continue
            best_agg = min(result[fig3.AGG_MYRI].at(i), result[fig3.AGG_QUAD].at(i))
            assert result[fig3.BALANCED].at(i) > best_agg, (
                f"balanced should lose at {size}B"
            )

    def test_balanced_at_least_20pct_worse_for_tiny_messages(self, result):
        col = result.column(64)
        best_agg = min(col[fig3.AGG_MYRI], col[fig3.AGG_QUAD])
        assert col[fig3.BALANCED] > 1.2 * best_agg

    def test_curves_converge_at_right_edge(self, result):
        col = result.column(16 * 1024)
        best_agg = min(col[fig3.AGG_MYRI], col[fig3.AGG_QUAD])
        assert col[fig3.BALANCED] == pytest.approx(best_agg, rel=0.15)

    def test_all_latencies_monotone_in_size(self, result):
        for series in result.series:
            assert all(
                a <= b + 1e-9 for a, b in zip(series.values, series.values[1:])
            ), f"{series.label} not monotone"

    def test_quadrics_aggregation_wins_at_tiny_sizes(self, result):
        """QsNetII's lower latency shows at the left edge of Fig. 3."""
        col = result.column(4)
        assert col[fig3.AGG_QUAD] < col[fig3.AGG_MYRI]

    def test_myri_aggregation_wins_at_large_sizes(self, result):
        col = result.column(16 * 1024)
        assert col[fig3.AGG_MYRI] < col[fig3.AGG_QUAD]
