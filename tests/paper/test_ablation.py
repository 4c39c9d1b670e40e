"""A1–A6 — ablations of the design choices DESIGN.md §5 calls out."""

import pytest

from repro.util.units import KiB


class TestA1DichotomyDepth:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A1")

    def test_regeneration(self, result):
        assert result.x_sizes == [1, 2, 4, 8, 16, 32]

    def test_accuracy_improves_with_depth(self, result):
        excess = result["completion excess %"].values
        assert all(a >= b - 1e-9 for a, b in zip(excess, excess[1:]))

    def test_paper_depth_suffices(self, result):
        """~10 iterations (the strategy default is 40) already land within
        1 % of the converged completion."""
        by_depth = dict(zip(result.x_sizes, result["completion excess %"].values))
        assert by_depth[8] < 1.0
        assert by_depth[16] < 0.05


class TestA2SamplingGrid:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A2")

    def test_regeneration(self, result):
        assert len(result.series) == 2

    def test_pow2_grid_error_below_1pct(self, result):
        col = result.column(1)
        assert col["max eager error %"] < 1.0
        assert col["max dma error %"] < 1.0

    def test_error_grows_with_stride(self, result):
        eager = result["max eager error %"].values
        assert eager[-1] > eager[0]


class TestA3IdlePrediction:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A3")

    def test_regeneration(self, result):
        assert len(result.series) == 2

    def test_identical_when_rails_idle(self, result):
        col = result.column(0)
        assert col["with idle prediction"] == pytest.approx(
            col["without idle prediction"]
        )

    def test_prediction_wins_under_background_traffic(self, result):
        for busy in result.x_sizes[1:]:
            col = result.column(busy)
            assert col["with idle prediction"] < col["without idle prediction"]

    def test_prediction_latency_bounded_under_heavy_traffic(self, result):
        """With the Fig. 2 rule the transfer reroutes to the free rail, so
        latency saturates instead of growing with the busy window."""
        heavy = result.column(result.x_sizes[-1])["with idle prediction"]
        medium = result.column(1000)["with idle prediction"]
        assert heavy == pytest.approx(medium, rel=0.05)


class TestA4OffloadCost:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A4")

    def test_regeneration(self, result):
        assert result.x_sizes == [0, 3, 6, 12]

    def test_crossover_grows_with_to(self, result):
        crossovers = result["crossover size B"].values
        assert all(a <= b for a, b in zip(crossovers, crossovers[1:]))

    def test_zero_cost_always_splits(self, result):
        assert result.column(0)["crossover size B"] <= 8.0

    def test_reduction_shrinks_with_to(self, result):
        reductions = result["best reduction %"].values
        assert all(a >= b for a, b in zip(reductions, reductions[1:]))


class TestA5NRail:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A5")

    def test_regeneration(self, result):
        assert result.x_sizes == [1, 2, 3]

    def test_bandwidth_scales_with_rails(self, result):
        measured = result["measured MB/s"].values
        assert measured[1] > 1.5 * measured[0]
        assert measured[2] > 1.2 * measured[1]

    def test_within_7pct_of_theoretical(self, result):
        for n in result.x_sizes:
            col = result.column(n)
            assert col["measured MB/s"] > 0.93 * col["theoretical aggregate MB/s"]


class TestA6EstimationVsMeasured:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A6")

    def test_regeneration(self, result):
        assert len(result.series) == 3

    def test_measured_never_beats_estimate_when_split(self, result):
        """Equation (1) ignores receive-side serialization, so once the
        strategy actually splits (≥ 8 KiB) the real run can only be slower
        — the 'synchronization issues' of §IV-B.  Below the crossover the
        live strategy declines to split, beating the forced-split
        estimate; that case is covered by the next test."""
        for i, size in enumerate(result.x_sizes):
            if size < 8 * KiB:
                continue
            est = result["equation (1) estimate"].at(i)
            measured = result["measured multicore run"].at(i)
            assert measured >= est - 0.5, f"at {size}B"

    def test_measured_never_beats_best_of_split_or_single(self, result):
        """At every size the live run is bounded below by the better of
        the estimate and the single-rail reference (whichever decision the
        strategy makes, its physics cannot beat both)."""
        for i, size in enumerate(result.x_sizes):
            est = result["equation (1) estimate"].at(i)
            single = result["Myri-10G (single rail)"].at(i)
            measured = result["measured multicore run"].at(i)
            assert measured >= min(est, single) - 0.5, f"at {size}B"

    def test_measured_still_beats_single_rail_at_64k(self, result):
        col = result.column(64 * KiB)
        assert col["measured multicore run"] < col["Myri-10G (single rail)"]


class TestA7MulticoreRx:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A7")

    def test_regeneration(self, result):
        assert len(result.series) == 3

    def test_multicore_rx_never_slower(self, result):
        single = result["measured, single-core rx"].values
        multi = result["measured, multicore rx"].values
        for s, m in zip(single, multi):
            assert m <= s + 1e-6

    def test_multicore_rx_reaches_the_estimate_at_64k(self, result):
        """The future-work improvement closes the §IV-B gap: the measured
        run lands within 2 % of the equation-(1) estimate."""
        col = result.column(64 * KiB)
        assert col["measured, multicore rx"] == pytest.approx(
            col["equation (1) estimate"], rel=0.02
        )

    def test_single_core_rx_gap_is_substantial_at_64k(self, result):
        col = result.column(64 * KiB)
        gap = col["measured, single-core rx"] / col["equation (1) estimate"]
        assert gap > 1.15


class TestA8StaleSampling:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A8")

    def test_regeneration(self, result):
        assert result.x_sizes == [100, 75, 50, 25]

    def test_identical_when_nothing_degraded(self, result):
        col = result.column(100)
        assert col["stale profiles"] == pytest.approx(col["re-sampled profiles"])

    def test_fresh_profiles_always_at_least_as_good(self, result):
        for pct in result.x_sizes:
            col = result.column(pct)
            assert col["re-sampled profiles"] <= col["stale profiles"] + 1e-6

    def test_stale_penalty_grows_with_degradation(self, result):
        penalties = [
            result.column(pct)["stale profiles"]
            / result.column(pct)["re-sampled profiles"]
            for pct in result.x_sizes
        ]
        assert all(a <= b + 1e-9 for a, b in zip(penalties, penalties[1:]))

    def test_stale_penalty_substantial_at_quarter_rate(self, result):
        col = result.column(25)
        assert col["stale profiles"] > 1.5 * col["re-sampled profiles"]


class TestA9SamplingNoise:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A9")

    def test_regeneration(self, result):
        assert len(result.series) == 3

    def test_zero_noise_matches_baseline(self, result):
        col = result.column(0)
        assert col["mean latency"] == pytest.approx(col["noise-free baseline"])

    def test_noise_never_beats_baseline(self, result):
        base = result["noise-free baseline"].at(0)
        for v in result["mean latency"].values:
            assert v >= base - 1e-6

    def test_moderate_noise_costs_little(self, result):
        """5% per-probe jitter (median of 5) degrades the 4 MiB hetero
        transfer by well under 10% — install-time sampling is practical."""
        base = result["noise-free baseline"].at(0)
        assert result.column(5)["mean latency"] < 1.10 * base

    def test_degradation_monotone_in_noise(self, result):
        means = result["mean latency"].values
        assert all(a <= b + 1e-6 for a, b in zip(means, means[1:]))


class TestA10Reactivity:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A10")

    def test_regeneration(self, result):
        assert len(result.series) == 3

    def test_spill_is_free(self, result):
        """An idle core polls at the same latency as the poll core."""
        polling = result["receiver idle (polling)"].values
        spill = result["poll core computing (spill)"].values
        for p, s in zip(polling, spill):
            assert s == pytest.approx(p)

    def test_interrupt_adds_exactly_the_preempt_window(self, result):
        polling = result["receiver idle (polling)"].values
        irq = result["all cores computing (interrupt)"].values
        for p, i in zip(polling, irq):
            assert i == pytest.approx(p + 6.0, abs=0.5)

    def test_no_starvation_anywhere(self, result):
        for series in result.series:
            assert all(v < 1000.0 for v in series.values)


class TestA11AggregationWindow:
    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment("A11")

    def test_regeneration(self, result):
        assert len(result.series) == 3

    def test_same_instant_posts_aggregate(self, result):
        col = result.column(0)
        assert col["adaptive aggregated? (1=yes)"] == 1.0
        assert col["adaptive"] < col["greedy"]

    def test_any_gap_defeats_aggregation(self, result):
        for gap_ns in result.x_sizes[1:]:
            assert result.column(gap_ns)["adaptive aggregated? (1=yes)"] == 0.0

    def test_without_aggregation_adaptive_never_loses_to_greedy(self, result):
        for gap_ns in result.x_sizes[1:]:
            col = result.column(gap_ns)
            assert col["adaptive"] <= col["greedy"] + 1e-6
