"""Unit and property tests for SampleTable and NicEstimator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import NicEstimator, SampleTable
from repro.core.packets import TransferMode
from repro.util.errors import SamplingError


def linear_table(sizes, a, b):
    """T(s) = a + s/b sampled at the given sizes."""
    return SampleTable(sizes, [a + s / b for s in sizes])


POW2 = [2 ** k for k in range(2, 15)]  # 4 .. 16384


class TestSampleTableLookup:
    def test_exact_points_returned_exactly(self):
        t = linear_table(POW2, 2.0, 100.0)
        for s in POW2:
            assert t(s) == pytest.approx(2.0 + s / 100.0)

    def test_interpolation_is_linear_between_points(self):
        t = SampleTable([4, 8], [10.0, 20.0])
        assert t(6) == pytest.approx(15.0)

    def test_extrapolates_above_last_point(self):
        t = linear_table(POW2, 2.0, 100.0)
        s = POW2[-1] * 3
        assert t(s) == pytest.approx(2.0 + s / 100.0)

    def test_extrapolates_below_first_point_clamped_nonnegative(self):
        t = SampleTable([64, 128], [1.0, 100.0])
        assert t(0) == 0.0  # raw extrapolation would be negative

    def test_zero_size(self):
        t = linear_table(POW2, 5.0, 100.0)
        assert t(0) == pytest.approx(5.0 - (4 / 100.0) * 0, abs=0.2)

    def test_negative_size_rejected(self):
        t = linear_table(POW2, 1.0, 10.0)
        with pytest.raises(SamplingError):
            t(-1)

    def test_non_pow2_grid_falls_back_to_search(self):
        t = SampleTable([10, 20, 50], [1.0, 2.0, 5.0])
        assert not t._pow2
        assert t(35) == pytest.approx(3.5)

    @given(st.integers(min_value=0, max_value=3 * POW2[-1]))
    def test_monotone_inputs_give_monotone_estimates(self, size):
        t = linear_table(POW2, 3.0, 77.0)
        assert t(size) <= t(size + 1) + 1e-9

    @given(
        st.integers(min_value=4, max_value=POW2[-1] - 1),
    )
    def test_interpolation_brackets_sampled_neighbours(self, size):
        t = linear_table(POW2, 3.0, 77.0)
        import math

        k = int(math.floor(math.log2(size)))
        lo, hi = t(2 ** k), t(2 ** (k + 1))
        assert lo - 1e-9 <= t(size) <= hi + 1e-9


class TestSampleTableInverse:
    def test_inverse_roundtrip_inside_range(self):
        t = linear_table(POW2, 2.0, 100.0)
        for s in (5, 100, 3000, 16000):
            assert t.inverse(t(s)) == pytest.approx(s, rel=1e-6)

    def test_inverse_below_floor_gives_zero(self):
        # Extrapolated zero-size cost is 9.0; nothing fits in less.
        t = SampleTable([4, 8], [10.0, 11.0])
        assert t.inverse(5.0) == 0.0

    def test_inverse_below_first_point_extrapolates(self):
        t = SampleTable([4, 8], [10.0, 20.0])
        # The extrapolated curve passes through (0.4 B, 1.0 us).
        assert t.inverse(1.0) == pytest.approx(0.4)

    def test_inverse_extrapolates_beyond_range(self):
        t = linear_table(POW2, 2.0, 100.0)
        big_time = t(POW2[-1]) * 4
        assert t.inverse(big_time) == pytest.approx((big_time - 2.0) * 100.0, rel=1e-6)

    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_inverse_is_monotone(self, time):
        t = linear_table(POW2, 2.0, 100.0)
        assert t.inverse(time) <= t.inverse(time + 1.0) + 1e-6


class TestSampleTableValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(SamplingError):
            SampleTable([1, 2], [1.0])

    def test_single_point_rejected(self):
        with pytest.raises(SamplingError):
            SampleTable([4], [1.0])

    def test_non_increasing_sizes_rejected(self):
        with pytest.raises(SamplingError):
            SampleTable([4, 4], [1.0, 2.0])
        with pytest.raises(SamplingError):
            SampleTable([8, 4], [1.0, 2.0])

    def test_negative_time_rejected(self):
        with pytest.raises(SamplingError):
            SampleTable([4, 8], [-1.0, 2.0])

    def test_dict_roundtrip(self):
        t = linear_table(POW2, 2.5, 123.0)
        t2 = SampleTable.from_dict(t.as_dict())
        assert t2(777) == pytest.approx(t(777))


def make_estimator(eager_rate=1100.0, dma_rate=1228.0, control=3.0, limit=65536):
    eager_sizes = [2 ** k for k in range(2, 17)]       # 4 .. 64K
    dma_sizes = [2 ** k for k in range(12, 25)]        # 4K .. 16M
    return NicEstimator(
        name="testnet",
        eager=SampleTable(eager_sizes, [4.0 + s / eager_rate for s in eager_sizes]),
        dma=SampleTable(dma_sizes, [3.5 + s / dma_rate for s in dma_sizes]),
        control_oneway=control,
        eager_limit=limit,
    )


class TestNicEstimator:
    def test_transfer_time_dispatches_on_mode(self):
        est = make_estimator()
        assert est.transfer_time(8192, TransferMode.EAGER) == pytest.approx(
            4.0 + 8192 / 1100.0
        )
        assert est.transfer_time(8192, TransferMode.RENDEZVOUS) == pytest.approx(
            3.5 + 8192 / 1228.0
        )

    def test_rdv_handshake_is_two_controls(self):
        assert make_estimator(control=3.0).rdv_handshake() == 6.0

    def test_best_mode_small_is_eager(self):
        assert make_estimator().best_mode(4096) is TransferMode.EAGER

    def test_best_mode_above_limit_is_rdv(self):
        est = make_estimator(limit=65536)
        assert est.best_mode(65537) is TransferMode.RENDEZVOUS

    def test_rdv_threshold_is_crossover(self):
        est = make_estimator()
        thr = est.rdv_threshold()
        assert est.best_mode(max(4, thr - 2048)) is TransferMode.EAGER or thr == 4
        if thr < est.eager_limit:
            assert est.best_mode(thr) is TransferMode.RENDEZVOUS

    def test_plateau_bandwidth_near_dma_rate(self):
        est = make_estimator(dma_rate=1228.0)
        assert est.plateau_bandwidth() == pytest.approx(1228.0, rel=0.01)

    def test_negative_control_rejected(self):
        with pytest.raises(SamplingError):
            make_estimator(control=-1.0)

    def test_dict_roundtrip(self):
        est = make_estimator()
        est2 = NicEstimator.from_dict(est.as_dict())
        assert est2.name == est.name
        assert est2.rdv_threshold() == est.rdv_threshold()
        assert est2.transfer_time(5000, TransferMode.EAGER) == pytest.approx(
            est.transfer_time(5000, TransferMode.EAGER)
        )


def _numpy_reference(table, size):
    """The seed implementation's numpy scalar path, kept as the oracle
    for the pure-Python fast path (must agree bitwise)."""
    import math

    import numpy as np

    sizes, times = table.sizes, table.times
    clamped = max(size, 1.0)
    if table._pow2:
        i = int(math.floor(math.log2(clamped))) - table._log0 if clamped > 0 else 0
    else:
        i = int(np.searchsorted(sizes, clamped, side="right")) - 1
    i = max(0, min(i, len(sizes) - 2))
    s0, s1 = sizes[i], sizes[i + 1]
    t0, t1 = times[i], times[i + 1]
    t = t0 + (t1 - t0) * (size - s0) / (s1 - s0)
    return max(0.0, float(t))


class TestScalarFastPathEqualsNumpyPath:
    """The pure-Python scalar path and the seed's numpy formula must
    agree to the last bit — the estimator sits under every split
    decision, so any drift would shift timestamps."""

    @given(
        st.integers(min_value=2, max_value=20),  # log2 of first sample
        st.integers(min_value=3, max_value=12),  # number of samples
        st.lists(
            st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
            min_size=3,
            max_size=12,
        ),
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_pow2_grid(self, log0, n, raw_times, size):
        n = min(n, len(raw_times))
        times = sorted(raw_times[:n])
        sizes = [2 ** (log0 + k) for k in range(n)]
        t = SampleTable(sizes, times)
        assert t._pow2
        assert t(size) == _numpy_reference(t, size)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=10**8),
            min_size=3,
            max_size=12,
            unique=True,
        ),
        st.lists(
            st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
            min_size=12,
            max_size=12,
        ),
        st.floats(min_value=0.0, max_value=2e8, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_non_pow2_grid(self, raw_sizes, raw_times, size):
        sizes = sorted(raw_sizes)
        times = sorted(raw_times[: len(sizes)])
        t = SampleTable(sizes, times)
        assert t(size) == _numpy_reference(t, size)


class TestEstimatorImmutabilityAndMemo:
    def make(self):
        eager = linear_table(POW2, 1.0, 200.0)
        dma = linear_table(POW2, 6.0, 400.0)
        return NicEstimator("nic", eager, dma, control_oneway=2.0, eager_limit=POW2[-1])

    def test_estimators_are_immutable_after_construction(self):
        est = self.make()
        for attr, value in [
            ("eager_limit", 1),
            ("control_oneway", 0.0),
            ("name", "other"),
            ("eager", None),
        ]:
            with pytest.raises(AttributeError):
                setattr(est, attr, value)

    def test_rdv_threshold_memoized_and_stable(self):
        est = self.make()
        first = est.rdv_threshold()
        assert est._rdv_threshold_cache == first
        assert est.rdv_threshold() == first  # served from the cache
        # The cached value matches an identical fresh estimator's scan.
        assert self.make().rdv_threshold() == first

    def test_repr_does_not_rescan(self):
        est = self.make()
        repr(est)
        assert est._rdv_threshold_cache is not None
        assert repr(est) == repr(est)

    def test_transfer_time_memo_exact(self):
        est = self.make()
        for size in (0, 1, 37, 4096, 10**6):
            for mode in (TransferMode.EAGER, TransferMode.RENDEZVOUS):
                table = est.eager if mode is TransferMode.EAGER else est.dma
                assert est.transfer_time(size, mode) == table(size)
                # second call: memo hit, same bits
                assert est.transfer_time(size, mode) == table(size)

    def test_plateau_bandwidth_memoized(self):
        est = self.make()
        assert est.plateau_bandwidth() == est.plateau_bandwidth()
        assert est._plateau_cache is not None

    def test_best_mode_memo_matches_fresh_estimator(self):
        est, fresh = self.make(), self.make()
        for size in (1, 512, 4096, POW2[-1], POW2[-1] + 1):
            assert est.best_mode(size) is fresh.best_mode(size)
            assert est.best_mode(size) is fresh.best_mode(size)
