"""Unit and property tests for the statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util import percentile


class TestPercentile:
    def test_median_is_p50(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_extremes(self):
        xs = [3.0, 1.0, 2.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 3.0

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=100),
    )
    def test_result_within_data_range(self, xs, q):
        p = percentile(xs, q)
        assert min(xs) <= p <= max(xs)

