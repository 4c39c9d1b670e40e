"""Property tests for Timeline interval arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Interval, Timeline

interval_st = st.tuples(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
).map(lambda p: Interval(min(p), max(p)))

lane_st = st.lists(interval_st, min_size=0, max_size=20)


def make(a, b):
    tl = Timeline()
    for iv in a:
        tl.add("a", iv)
    for iv in b:
        tl.add("b", iv)
    if not a:
        tl._lanes.setdefault("a", [])
    if not b:
        tl._lanes.setdefault("b", [])
    return tl


class TestOverlapProperties:
    @settings(max_examples=80, deadline=None)
    @given(a=lane_st, b=lane_st)
    def test_overlap_symmetric(self, a, b):
        tl = make(a, b)
        assert tl.overlap("a", "b") == pytest.approx(tl.overlap("b", "a"))

    @settings(max_examples=80, deadline=None)
    @given(a=lane_st, b=lane_st)
    def test_overlap_bounded_by_busy_times(self, a, b):
        tl = make(a, b)
        o = tl.overlap("a", "b")
        assert o <= tl.busy_time("a") + 1e-6
        assert o <= tl.busy_time("b") + 1e-6
        assert o >= 0.0

    @settings(max_examples=80, deadline=None)
    @given(a=lane_st)
    def test_self_overlap_is_busy_time(self, a):
        tl = make(a, a)
        assert tl.overlap("a", "b") == pytest.approx(tl.busy_time("a"))


class TestBusyTimeProperties:
    @settings(max_examples=80, deadline=None)
    @given(a=lane_st)
    def test_busy_time_bounded_by_span(self, a):
        tl = make(a, [])
        span = tl.span("a")
        if span is None:
            assert tl.busy_time("a") == 0.0
        else:
            assert tl.busy_time("a") <= (span[1] - span[0]) + 1e-6

    @settings(max_examples=80, deadline=None)
    @given(a=lane_st)
    def test_busy_time_leq_sum_of_durations(self, a):
        tl = make(a, [])
        assert tl.busy_time("a") <= sum(iv.duration for iv in a) + 1e-6

    @settings(max_examples=80, deadline=None)
    @given(a=lane_st, b=lane_st)
    def test_parallelism_bounds(self, a, b):
        tl = make(a, b)
        p = tl.max_parallelism()
        nonempty = sum(1 for lane in ("a", "b") if tl.intervals(lane))
        assert 0 <= p <= nonempty
        if tl.overlap("a", "b") > 0:
            assert p == 2
