"""Profile blending: exponential merge + the band-edge-inversion fix.

Regression target: blending two independently-noisy curves can invert a
band edge (t[i+1] < t[i]), which breaks ``SampleTable.inverse`` (the
waterfill solver walks it) and lets the dichotomy prefer *larger* chunks
on a slower rail.  The merge path must therefore always emit monotonic
non-decreasing transfer times.
"""

import pytest

from repro.core.estimator import NicEstimator, SampleTable
from repro.core.sampling import NetworkSampler
from repro.networks import rail_profile
from repro.util.errors import SamplingError


def table(sizes, times):
    return SampleTable(sizes, times)


class TestSampleTableBlend:
    def test_moves_weight_of_the_way_to_fresh(self):
        old = table([1024, 2048], [10.0, 20.0])
        fresh = table([1024, 2048], [30.0, 40.0])
        out = old.blend(fresh, 0.5)
        assert list(out.times) == [20.0, 30.0]

    def test_weight_one_replaces_weight_zero_keeps(self):
        old = table([1024, 2048], [10.0, 20.0])
        fresh = table([1024, 2048], [30.0, 40.0])
        assert list(old.blend(fresh, 1.0).times) == [30.0, 40.0]
        assert list(old.blend(fresh, 0.0).times) == [10.0, 20.0]

    def test_band_edge_inversion_is_clamped(self):
        """The regression: a fresh curve dipping at one grid point would
        produce t[1] < t[0] after blending; the running max forbids it."""
        old = table([1024, 2048, 4096], [10.0, 20.0, 30.0])
        fresh = table([1024, 2048, 4096], [50.0, 5.0, 60.0])
        out = old.blend(fresh, 0.5)
        # Raw blend would be [30, 12.5, 45] — inverted at the 2K edge.
        assert list(out.times) == [30.0, 30.0, 45.0]

    def test_blend_result_is_always_monotonic(self):
        old = table([1, 2, 4, 8, 16], [1.0, 2.0, 3.0, 4.0, 5.0])
        fresh = table([1, 2, 4, 8, 16], [9.0, 0.1, 8.0, 0.2, 7.0])
        for w in (0.1, 0.3, 0.5, 0.9, 1.0):
            times = list(old.blend(fresh, w).times)
            assert times == sorted(times), f"inverted at weight {w}"

    def test_monotonic_blend_keeps_inverse_usable(self):
        old = table([1024, 2048, 4096], [10.0, 20.0, 30.0])
        fresh = table([1024, 2048, 4096], [50.0, 5.0, 60.0])
        out = old.blend(fresh, 0.5)
        # inverse() requires non-decreasing times; a size recovered from
        # a time inside the table must round-trip consistently.
        size = out.inverse(40.0)
        assert 2048.0 <= size <= 4096.0

    def test_mismatched_grids_interpolate(self):
        old = table([1024, 4096], [10.0, 40.0])
        fresh = table([1024, 2048, 4096], [20.0, 30.0, 40.0])
        out = old.blend(fresh, 1.0)
        assert list(out.sizes) == [1024.0, 4096.0]
        assert list(out.times) == [20.0, 40.0]

    def test_blend_still_monotonic_and_bit_stable(self):
        """Each blended point is exactly ``(1 - w) * t + w * fresh(s)``
        before the monotonic clamp (calibration's byte-identity tests
        depend on it)."""
        a = table([1, 64, 4096], [1.0, 5.0, 40.0])
        b = table([1, 64, 4096], [2.0, 4.0, 90.0])
        blended = a.blend(b, 0.25)
        expected = [0.75 * t + 0.25 * b(s) for s, t in zip([1, 64, 4096], [1.0, 5.0, 40.0])]
        running = 0.0
        for i, t in enumerate(expected):
            expected[i] = running = max(running, t)
        assert list(blended.times) == expected

    @pytest.mark.parametrize("weight", [-0.1, 1.1])
    def test_bad_weight_rejected(self, weight):
        t = table([1024, 2048], [10.0, 20.0])
        with pytest.raises(SamplingError):
            t.blend(t, weight)


class TestNicEstimatorBlend:
    def _estimator(self, scale=1.0, name="myri10g"):
        est = NetworkSampler().sample(rail_profile(name))
        if scale == 1.0:
            return est
        return NicEstimator(
            name=est.name,
            eager=SampleTable(
                [int(s) for s in est.eager.sizes],
                [t * scale for t in est.eager.times],
            ),
            dma=SampleTable(
                [int(s) for s in est.dma.sizes],
                [t * scale for t in est.dma.times],
            ),
            control_oneway=est.control_oneway * scale,
            eager_limit=est.eager_limit,
        )

    def test_returns_a_new_estimator(self):
        old = self._estimator()
        fresh = self._estimator(scale=2.0)
        out = old.blend(fresh, 0.5)
        assert out is not old
        # Immutability: blending must never touch the source in place.
        assert old.dma.times[-1] == pytest.approx(fresh.dma.times[-1] / 2.0)

    def test_halfway_blend_halves_the_gap(self):
        old = self._estimator()
        fresh = self._estimator(scale=2.0)
        out = old.blend(fresh, 0.5)
        assert out.dma.times[-1] == pytest.approx(1.5 * old.dma.times[-1])
        assert out.control_oneway == pytest.approx(1.5 * old.control_oneway)

    def test_repeated_blends_converge_exponentially(self):
        est = self._estimator()
        fresh = self._estimator(scale=2.0)
        target = fresh.dma.times[-1]
        for _ in range(8):
            est = est.blend(fresh, 0.5)
        assert est.dma.times[-1] == pytest.approx(target, rel=0.005)

    def test_capability_bounds_stay_put(self):
        old = self._estimator()
        out = old.blend(self._estimator(scale=3.0), 0.5)
        assert out.eager_limit == old.eager_limit
        assert out.name == old.name

    def test_cross_technology_blend_rejected(self):
        with pytest.raises(SamplingError):
            self._estimator(name="myri10g").blend(
                self._estimator(name="quadrics"), 0.5
            )
