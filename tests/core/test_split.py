"""Unit and property tests for the split solvers."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.estimator import NicEstimator, SampleTable
from repro.core.packets import TransferMode
from repro.core.prediction import _ScaledEstimator
from repro.core.sampling import ProfileStore
from repro.core.split import (
    SplitResult,
    _validate,
    dichotomy_split,
    equal_split,
    ratio_split,
    waterfill_split,
)
from repro.networks import rail_profile
from repro.util.errors import ConfigurationError


def make_est(name, eager_rate, dma_rate, eager_fix=4.0, dma_fix=3.5):
    eager_sizes = [2 ** k for k in range(2, 17)]
    dma_sizes = [2 ** k for k in range(12, 25)]
    return NicEstimator(
        name=name,
        eager=SampleTable(eager_sizes, [eager_fix + s / eager_rate for s in eager_sizes]),
        dma=SampleTable(dma_sizes, [dma_fix + s / dma_rate for s in dma_sizes]),
        control_oneway=3.0,
        eager_limit=65536,
    )


MYRI = make_est("myri", 1100.0, 1228.0)
QUAD = make_est("quad", 800.0, 878.0)
RDV = TransferMode.RENDEZVOUS
EAGER = TransferMode.EAGER


class TestEqualSplit:
    def test_divides_evenly(self):
        assert equal_split(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread_over_first_chunks(self):
        assert equal_split(10, 3) == [4, 3, 3]

    def test_zero_size(self):
        assert equal_split(0, 2) == [0, 0]

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigurationError):
            equal_split(10, 0)

    @given(st.integers(min_value=0, max_value=10**8), st.integers(min_value=1, max_value=16))
    def test_sum_exact_and_balanced(self, size, n):
        sizes = equal_split(size, n)
        assert sum(sizes) == size
        assert max(sizes) - min(sizes) <= 1


class TestRatioSplit:
    def test_proportional(self):
        assert ratio_split(100, [3.0, 1.0]) == [75, 25]

    def test_rounding_preserves_total(self):
        sizes = ratio_split(10, [1.0, 1.0, 1.0])
        assert sum(sizes) == 10

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            ratio_split(10, [])
        with pytest.raises(ConfigurationError):
            ratio_split(10, [0.0, 0.0])
        with pytest.raises(ConfigurationError):
            ratio_split(10, [1.0, -1.0])

    @given(
        st.integers(min_value=0, max_value=10**8),
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=6),
    )
    def test_sum_exact(self, size, weights):
        assert sum(ratio_split(size, weights)) == size


class TestDichotomySplit:
    def test_homogeneous_rails_split_evenly(self):
        res = dichotomy_split(1 << 22, [(MYRI, 0.0), (MYRI, 0.0)], RDV)
        assert res.sizes[0] == pytest.approx(res.sizes[1], rel=0.01)
        assert sum(res.sizes) == 1 << 22

    def test_fast_rail_gets_more_bytes(self):
        """Paper §II-A: 'the fastest one will have to send more data'."""
        res = dichotomy_split(4 << 20, [(MYRI, 0.0), (QUAD, 0.0)], RDV)
        assert res.sizes[0] > res.sizes[1]
        ratio = res.sizes[0] / (4 << 20)
        # dma rates 1228 vs 878 => fast share ~ 1228/2106 = 0.583
        assert 0.52 < ratio < 0.65

    def test_chunk_times_equalized(self):
        res = dichotomy_split(4 << 20, [(MYRI, 0.0), (QUAD, 0.0)], RDV)
        t0, t1 = res.predicted_times
        assert abs(t0 - t1) < 0.1 * max(t0, t1) / 100 + 1.0  # within ~1 us

    def test_busy_offset_shifts_bytes_away(self):
        free = dichotomy_split(4 << 20, [(MYRI, 0.0), (QUAD, 0.0)], RDV)
        busy = dichotomy_split(4 << 20, [(MYRI, 500.0), (QUAD, 0.0)], RDV)
        assert busy.sizes[0] < free.sizes[0]

    def test_huge_offset_discards_rail_entirely(self):
        """The Fig. 2 rule falls out: a rail busy too long gets nothing."""
        res = dichotomy_split(64 << 10, [(MYRI, 1e6), (QUAD, 0.0)], RDV)
        assert res.sizes == [0, 64 << 10]

    def test_tiny_message_still_sums_and_never_loses(self):
        res = dichotomy_split(8, [(MYRI, 0.0), (QUAD, 0.0)], RDV)
        assert sum(res.sizes) == 8
        single_best = min(est.transfer_time(8, RDV) for est, _ in [(MYRI, 0), (QUAD, 0)])
        assert res.predicted_completion <= single_best + 1e-6

    def test_zero_size(self):
        res = dichotomy_split(0, [(MYRI, 0.0), (QUAD, 0.0)], RDV)
        assert res.sizes == [0, 0]

    def test_wrong_rail_count_rejected(self):
        with pytest.raises(ConfigurationError):
            dichotomy_split(100, [(MYRI, 0.0)], RDV)
        with pytest.raises(ConfigurationError):
            dichotomy_split(100, [(MYRI, 0.0)] * 3, RDV)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            dichotomy_split(-1, [(MYRI, 0.0), (QUAD, 0.0)], RDV)
        with pytest.raises(ConfigurationError):
            dichotomy_split(100, [(MYRI, -1.0), (QUAD, 0.0)], RDV)

    @given(st.integers(min_value=1, max_value=16 << 20))
    @settings(max_examples=60, deadline=None)
    def test_split_never_worse_than_single_rail(self, size):
        rails = [(MYRI, 0.0), (QUAD, 0.0)]
        res = dichotomy_split(size, rails, RDV)
        assert sum(res.sizes) == size
        single_best = min(est.transfer_time(size, RDV) for est, _ in rails)
        assert res.predicted_completion <= single_best + 1e-6

    @given(
        st.integers(min_value=1, max_value=16 << 20),
        st.floats(min_value=0.0, max_value=5000.0),
        st.floats(min_value=0.0, max_value=5000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sizes_nonnegative_and_exact(self, size, off_a, off_b):
        res = dichotomy_split(size, [(MYRI, off_a), (QUAD, off_b)], RDV)
        assert all(s >= 0 for s in res.sizes)
        assert sum(res.sizes) == size


class TestWaterfillSplit:
    def test_matches_dichotomy_on_two_rails(self):
        rails = [(MYRI, 0.0), (QUAD, 0.0)]
        size = 4 << 20
        d = dichotomy_split(size, rails, RDV)
        w = waterfill_split(size, rails, RDV)
        assert w.predicted_completion == pytest.approx(
            d.predicted_completion, rel=0.01
        )

    def test_three_rails_all_used_for_large_message(self):
        ib = make_est("ib", 1900.0, 1500.0)
        res = waterfill_split(8 << 20, [(MYRI, 0.0), (QUAD, 0.0), (ib, 0.0)], RDV)
        assert all(s > 0 for s in res.sizes)
        assert sum(res.sizes) == 8 << 20
        # Faster rails carry more.
        assert res.sizes[2] > res.sizes[0] > res.sizes[1]

    def test_busy_rail_discarded(self):
        res = waterfill_split(64 << 10, [(MYRI, 1e6), (QUAD, 0.0)], RDV)
        assert res.sizes[0] == 0

    def test_single_rail(self):
        res = waterfill_split(1 << 20, [(MYRI, 0.0)], RDV)
        assert res.sizes == [1 << 20]

    def test_zero_size(self):
        res = waterfill_split(0, [(MYRI, 0.0), (QUAD, 0.0)], RDV)
        assert res.sizes == [0, 0]

    @given(st.integers(min_value=1, max_value=16 << 20))
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_single_rail(self, size):
        rails = [(MYRI, 0.0), (QUAD, 0.0)]
        res = waterfill_split(size, rails, RDV)
        assert sum(res.sizes) == size
        single_best = min(est.transfer_time(size, RDV) for est, _ in rails)
        assert res.predicted_completion <= single_best + 1.0

    @given(
        st.integers(min_value=1, max_value=1 << 22),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_eager_mode_sizes_exact(self, size, n):
        rails = [(MYRI, 0.0), (QUAD, 0.0), (make_est("ib", 1900, 1500), 0.0), (MYRI, 7.0)][:n]
        res = waterfill_split(size, rails, EAGER)
        assert sum(res.sizes) == size
        assert all(s >= 0 for s in res.sizes)


def reference_dichotomy_split(
    size, rails, mode, tolerance: float = 0.05, max_iterations: int = 40
) -> SplitResult:
    """The dichotomy as it read before it priced candidates on the
    curves directly: every time through ``transfer_time`` (and its
    memo), the winner's times estimated a second time.  Kept verbatim as
    the reference the current solver must match bit for bit."""
    _validate(size, rails)
    if len(rails) != 2:
        raise ConfigurationError(
            f"dichotomy_split handles exactly 2 rails, got {len(rails)}; "
            "use waterfill_split"
        )
    (est_a, off_a), (est_b, off_b) = rails

    def time_a(s: float) -> float:
        return off_a + est_a.transfer_time(s, mode)

    def time_b(s: float) -> float:
        return off_b + est_b.transfer_time(s, mode)

    x = size / 2.0
    step = size / 4.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        ta, tb = time_a(x), time_b(size - x)
        if abs(ta - tb) <= tolerance or step < 0.5:
            break
        if ta > tb:
            x -= step
        else:
            x += step
        step /= 2.0
    x = min(max(x, 0.0), float(size))

    # Degenerate boundaries: sending everything on one rail may beat any
    # split once an offset or a fixed cost dominates.
    candidates = [int(round(x)), 0, size]
    best_sizes, best_completion = None, float("inf")
    for sa in candidates:
        sb = size - sa
        completion = max(
            time_a(sa) if sa > 0 else 0.0,
            time_b(sb) if sb > 0 else 0.0,
        )
        if size == 0:
            completion = 0.0
        if completion < best_completion - 1e-12:
            best_completion = completion
            best_sizes = [sa, sb]
    assert best_sizes is not None
    return SplitResult(
        sizes=best_sizes,
        predicted_times=[time_a(best_sizes[0]), time_b(best_sizes[1])],
        iterations=iterations,
    )


#: the sampled Myri-10G and Quadrics profiles (curved, unlike make_est's)
SAMPLED = ProfileStore.sample_rails(
    [rail_profile("myri10g"), rail_profile("quadrics")]
).estimators
RAIL_POOL = [MYRI, QUAD, *SAMPLED.values()]

#: 1 B to 64 MiB, log-uniform as well as uniform
SIZES = st.one_of(
    st.integers(min_value=1, max_value=64 << 20),
    st.floats(min_value=0.0, max_value=26.0).map(lambda e: int(2.0 ** e)),
)
OFFSETS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5000.0))
#: healthy (the estimator itself) or degraded (its scaled planning view)
BW_FACTORS = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=0.99))


def planning_view(est, bw_factor):
    return est if bw_factor == 1.0 else _ScaledEstimator(est, bw_factor)


@st.composite
def two_rails(draw):
    return [
        (
            planning_view(draw(st.sampled_from(RAIL_POOL)), draw(BW_FACTORS)),
            draw(OFFSETS),
        )
        for _ in range(2)
    ]


def float_bits(values):
    return [float(v).hex() for v in values]


class TestDichotomyMatchesReference:
    """Pricing each candidate once, straight off the curves, changes no
    bit of any split."""

    @given(SIZES, two_rails(), st.sampled_from([EAGER, RDV]))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, size, rails, mode):
        new = dichotomy_split(size, rails, mode)
        ref = reference_dichotomy_split(size, rails, mode)
        assert new.sizes == ref.sizes
        assert float_bits(new.predicted_times) == float_bits(ref.predicted_times)
        assert new.iterations == ref.iterations

    @pytest.mark.parametrize("mode", [EAGER, RDV])
    def test_zero_size_bit_identical(self, mode):
        rails = [(MYRI, 12.5), (_ScaledEstimator(QUAD, 0.5), 0.0)]
        new = dichotomy_split(0, rails, mode)
        ref = reference_dichotomy_split(0, rails, mode)
        assert (new.sizes, new.iterations) == (ref.sizes, ref.iterations)
        assert float_bits(new.predicted_times) == float_bits(ref.predicted_times)

    def test_planning_reads_no_memo(self):
        """The solver reads the curves, so boundary candidates stay out
        of the estimators' memos."""
        rails = [
            (make_est("a", 1100.0, 1228.0), 0.0),
            (make_est("b", 800.0, 878.0), 7.0),
        ]
        for size in (64 << 10, 1 << 20, 5_000_003):
            dichotomy_split(size, rails, RDV)
            dichotomy_split(size, rails, EAGER)
        for est, _ in rails:
            assert est._eager_memo == {} and est._dma_memo == {}


# ---------------------------------------------------------------------- #
# closed-form oracle (Fig. 1c): two affine rails t = alpha + s / beta
# ---------------------------------------------------------------------- #

#: the power-of-two grid the affine rails are sampled on (1 B - 128 MiB)
AFFINE_GRID = [2 ** k for k in range(0, 28)]


def affine_rail(alpha, beta):
    """An estimator whose curves are sampled exactly from t = alpha + s/beta
    (µs, bytes/µs); linear interpolation reproduces the line everywhere."""
    table = SampleTable(AFFINE_GRID, [alpha + s / beta for s in AFFINE_GRID])
    return NicEstimator(
        "affine", eager=table, dma=table, control_oneway=1.0, eager_limit=1 << 27
    )


def closed_form_boundary(size, rail_a, rail_b):
    """Equal-time boundary x* and completion T* of two affine rails, each
    ``(alpha, beta, busy offset)``: o_a + alpha_a + x/beta_a equals
    o_b + alpha_b + (S - x)/beta_b."""
    (alpha_a, beta_a, off_a), (alpha_b, beta_b, off_b) = rail_a, rail_b
    x_star = (off_b + alpha_b - off_a - alpha_a + size / beta_b) / (
        1.0 / beta_a + 1.0 / beta_b
    )
    return x_star, off_a + alpha_a + x_star / beta_a


def boundary_tolerance(beta_a, beta_b):
    """Bytes by which ``sizes[0]`` may miss x*, from the solver's stops.

    * 0.05 µs stop: ta - tb is affine in the boundary with slope
      1/beta_a + 1/beta_b, so |ta - tb| <= 0.05 puts x within
      0.05 / (1/beta_a + 1/beta_b) bytes of x*;
    * ½-byte step stop: the bisection keeps |x - x*| <= 2 * step, and it
      stops at a step below ½ byte, so x is within 1 byte of x*;
    * the boundary is then rounded to a whole byte: ½ byte more.
    """
    by_time = 0.05 / (1.0 / beta_a + 1.0 / beta_b)
    return max(by_time, 1.0) + 0.5


def oracle_holds(size, split, rail_a, rail_b):
    """``split`` puts its boundary and both predicted times where the
    closed form says, to the solver's own tolerance (and 1e-9 relative
    for float rounding in the curves)."""
    x_star, t_star = closed_form_boundary(size, rail_a, rail_b)
    tol = boundary_tolerance(rail_a[1], rail_b[1])
    slack = 1e-9 * t_star
    return (
        abs(split.sizes[0] - x_star) <= tol
        and abs(split.predicted_times[0] - t_star) <= tol / rail_a[1] + slack
        and abs(split.predicted_times[1] - t_star) <= tol / rail_b[1] + slack
    )


@st.composite
def affine_scenarios(draw):
    """Two affine rails and a size whose equal-time boundary lies in the
    middle 90% of the message (away from the degenerate one-rail ends):
    the boundary is drawn, then the busy offsets that put it there."""
    size = int(2.0 ** draw(st.floats(min_value=16.0, max_value=26.0)))
    alpha_a, alpha_b = (draw(st.floats(min_value=0.5, max_value=20.0)) for _ in "ab")
    beta_a, beta_b = (draw(st.floats(min_value=100.0, max_value=2500.0)) for _ in "ab")
    x_target = size * draw(st.floats(min_value=0.05, max_value=0.95))
    base = draw(st.floats(min_value=0.0, max_value=500.0))
    gap = (
        x_target * (1.0 / beta_a + 1.0 / beta_b)
        - size / beta_b
        - alpha_b
        + alpha_a
    )  # o_b - o_a
    off_a, off_b = (base, base + gap) if gap >= 0 else (base - gap, base)
    return size, (alpha_a, beta_a, off_a), (alpha_b, beta_b, off_b)


def affine_split(size, rail_a, rail_b, table_rate_a=None):
    (alpha_a, beta_a, off_a), (alpha_b, beta_b, off_b) = rail_a, rail_b
    est_a = affine_rail(alpha_a, beta_a if table_rate_a is None else table_rate_a)
    return dichotomy_split(
        size, [(est_a, off_a), (affine_rail(alpha_b, beta_b), off_b)], RDV
    )


class TestDichotomyClosedForm:
    """The dichotomy against the closed-form equal-time boundary of two
    affine rails, independent of any earlier run of the solver."""

    @given(affine_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_boundary_and_times_match_closed_form(self, scenario):
        size, rail_a, rail_b = scenario
        x_star, _ = closed_form_boundary(size, rail_a, rail_b)
        tol = boundary_tolerance(rail_a[1], rail_b[1])
        # Away from the ends: the split completes by T* + tol/min(beta),
        # which beats either one-rail end by a margin.
        min_beta = min(rail_a[1], rail_b[1])
        assume(x_star / rail_b[1] > 2 * tol / min_beta)
        assume((size - x_star) / rail_a[1] > 2 * tol / min_beta)
        split = affine_split(size, rail_a, rail_b)
        assert sum(split.sizes) == size
        assert oracle_holds(size, split, rail_a, rail_b), (split, x_star, tol)

    PAPER_LIKE = [
        (size, (3.5, 1228.0, off_a), (3.5, 878.0, off_b))
        for size in (256 << 10, 1 << 20, 4 << 20, 16 << 20)
        for off_a, off_b in ((0.0, 0.0), (150.0, 0.0), (0.0, 120.0))
    ]

    @pytest.mark.parametrize("size, rail_a, rail_b", PAPER_LIKE)
    def test_paper_like_rails(self, size, rail_a, rail_b):
        assert oracle_holds(size, affine_split(size, rail_a, rail_b), rail_a, rail_b)

    @pytest.mark.parametrize("size, rail_a, rail_b", PAPER_LIKE)
    def test_planted_rate_error_fails_the_oracle(self, size, rail_a, rail_b):
        """Rail a's tables run 5% slow while the closed form keeps its
        true rate: the oracle must notice."""
        planted = affine_split(size, rail_a, rail_b, table_rate_a=0.95 * rail_a[1])
        assert not oracle_holds(size, planted, rail_a, rail_b)
