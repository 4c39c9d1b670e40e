"""Tests for CompletionPredictor: point predictions and rail selection."""

import gc
import itertools
from types import SimpleNamespace
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ClusterBuilder
from repro.core.packets import TransferMode
from repro.core.prediction import CompletionPredictor, RailPlan
from repro.core.sampling import NetworkSampler, ProfileStore
from repro.core.split import SplitResult, waterfill_split
from repro.networks import Transfer, TransferKind, rail_profile
from repro.util.errors import ConfigurationError, SamplingError
from repro.util.units import KiB, MiB

from tests.conftest import wire_pair
from tests.core.test_split import (
    BW_FACTORS,
    OFFSETS,
    SAMPLED,
    SIZES,
    float_bits,
    reference_dichotomy_split,
)

RDV = TransferMode.RENDEZVOUS
EAGER = TransferMode.EAGER


@pytest.fixture(scope="module")
def profiles():
    return ProfileStore.sample_rails(
        [rail_profile("myri10g"), rail_profile("quadrics")]
    )


@pytest.fixture
def rig(sim, profiles):
    node_a, node_b = wire_pair(
        sim, [rail_profile("myri10g"), rail_profile("quadrics")]
    )
    return node_a, CompletionPredictor(profiles.estimators)


class TestPointPrediction:
    def test_idle_nic_prediction_matches_sampled_curve(self, sim, rig):
        node_a, pred = rig
        mx = node_a.nics[0]
        est = pred.estimator_for(mx)
        assert pred.predict(mx, 1 * MiB, RDV) == pytest.approx(
            est.transfer_time(1 * MiB, RDV)
        )

    def test_busy_offset_added(self, sim, rig):
        """Fig. 2: time-before-idle is added to the transfer estimate."""
        node_a, pred = rig
        mx = node_a.nics[0]
        mx.inject_busy(500.0)
        idle_t = pred.estimator_for(mx).transfer_time(1 * MiB, RDV)
        assert pred.predict(mx, 1 * MiB, RDV) == pytest.approx(500.0 + idle_t)

    def test_unsampled_technology_raises(self, sim, profiles):

        node_a, _ = wire_pair(sim, [rail_profile("tcp")])
        pred = CompletionPredictor(profiles.estimators)
        with pytest.raises(SamplingError):
            pred.estimator_for(node_a.nics[0])

    def test_empty_estimators_rejected(self):
        with pytest.raises(SamplingError):
            CompletionPredictor({})


class TestRailSelection:
    def test_large_message_uses_both_rails(self, sim, rig):
        node_a, pred = rig
        plan = pred.plan(node_a.nics, 4 * MiB, RDV)
        assert len(plan.nics) == 2
        assert sum(plan.sizes) == 4 * MiB
        # Myri (faster) carries more.
        by_name = dict(zip((n.profile.name for n in plan.nics), plan.sizes))
        assert by_name["myri10g"] > by_name["quadrics"]

    def test_fig2_discards_long_busy_rail(self, sim, rig):
        """A rail that frees too late is excluded from the transfer."""
        node_a, pred = rig
        mx, elan = node_a.nics
        mx.inject_busy(100_000.0)
        plan = pred.plan(node_a.nics, 256 * KiB, RDV)
        assert [n.profile.name for n in plan.nics] == ["quadrics"]
        assert plan.sizes == [256 * KiB]

    def test_briefly_busy_rail_still_used(self, sim, rig):
        """Fig. 2's refinement: a busy NIC that frees soon is *planned in*
        — its queue position is worth waiting for."""
        node_a, pred = rig
        mx, elan = node_a.nics
        mx.inject_busy(50.0)  # frees long before a 4 MiB transfer ends
        plan = pred.plan(node_a.nics, 4 * MiB, RDV)
        assert len(plan.nics) == 2

    def test_max_rails_caps_subset(self, sim, rig):
        node_a, pred = rig
        plan = pred.plan(node_a.nics, 4 * MiB, RDV, max_rails=1)
        assert len(plan.nics) == 1
        assert plan.sizes == [4 * MiB]

    def test_fixed_cost_discourages_tiny_splits(self, sim, rig):
        """Equation (1): with TO > 0, small messages stay on one rail."""
        node_a, pred = rig
        small = pred.plan(node_a.nics, 1 * KiB, EAGER, fixed_cost=3.0)
        assert len(small.nics) == 1
        large = pred.plan(node_a.nics, 64 * KiB, EAGER, fixed_cost=3.0)
        assert len(large.nics) == 2

    def test_fixed_cost_zero_splits_small_eager(self, sim, rig):
        node_a, pred = rig
        plan = pred.plan(node_a.nics, 4 * KiB, EAGER, fixed_cost=0.0)
        assert len(plan.nics) == 2

    def test_plan_over_zero_nics_rejected(self, sim, rig):
        _, pred = rig
        with pytest.raises(ConfigurationError):
            pred.plan([], 1024, RDV)

    @pytest.mark.parametrize("max_rails", [None, 1])
    def test_zero_byte_plan_rejected(self, sim, rig, max_rails):
        # Over two rails this used to fail inside the split with a bare
        # ValueError; over one it returned an empty plan.
        node_a, pred = rig
        with pytest.raises(ConfigurationError, match="positive size"):
            pred.plan(node_a.nics, 0, RDV, max_rails=max_rails)

    def test_plan_predicted_completion_close_to_reality(self, sim, rig):
        """End-to-end: predicted completion ≈ simulated completion."""
        node_a, pred = rig
        plan = pred.plan(node_a.nics, 4 * MiB, RDV)
        transfers = []
        for nic, size in zip(plan.nics, plan.sizes):
            t = Transfer(kind=TransferKind.RDV_DATA, size=size, msg_id=0)
            nic.submit(t, node_a.cores[0])
            transfers.append(t)
        # Receive side has no pioman here: use delivery + detect estimate.
        sim.run()
        actual = max(t.t_delivered for t in transfers)
        # Predicted includes poll_detect (~1us); allow a small band.
        assert actual == pytest.approx(plan.predicted_completion, rel=0.02)


class TestRailPlanValidation:
    def test_mismatched_lengths_rejected(self, sim, rig):
        node_a, _ = rig
        with pytest.raises(ConfigurationError):
            RailPlan(nics=[node_a.nics[0]], sizes=[1, 2])

    def test_over_leaves_zero_byte_rails_out(self, sim, rig):
        node_a, _ = rig
        plan = RailPlan.over(node_a.nics, [0, 5], 3.0, 2)
        assert plan.nics == [node_a.nics[1]]
        assert plan.sizes == [5]
        assert (plan.predicted_completion, plan.iterations) == (3.0, 2)

    def test_total(self, sim, rig):
        node_a, pred = rig
        plan = pred.plan(node_a.nics, 1 * MiB, RDV)
        assert plan.total == 1 * MiB


class TestPlanCache:
    """The split-decision cache: same-shape planning is served from the
    cache, bit-identical to a fresh solve, and invalidation works."""

    def test_hit_returns_identical_plan(self, sim, rig):
        node_a, pred = rig
        first = pred.plan(node_a.nics, 2 * MiB, RDV)
        assert pred.plan_cache_misses == 1
        second = pred.plan(node_a.nics, 2 * MiB, RDV)
        assert pred.plan_cache_hits == 1
        assert second.nics == first.nics
        assert second.sizes == first.sizes
        assert second.predicted_completion == first.predicted_completion
        assert second.iterations == first.iterations

    def test_cached_plan_matches_fresh_predictor(self, sim, rig, profiles):
        node_a, pred = rig
        pred.plan(node_a.nics, 1 * MiB, RDV)
        cached = pred.plan(node_a.nics, 1 * MiB, RDV)
        fresh = CompletionPredictor(profiles.estimators).plan(
            node_a.nics, 1 * MiB, RDV
        )
        assert cached.sizes == fresh.sizes
        assert cached.predicted_completion == fresh.predicted_completion

    def test_offset_change_misses(self, sim, rig):
        node_a, pred = rig
        pred.plan(node_a.nics, 1 * MiB, RDV)
        node_a.nics[0].inject_busy(300.0)
        pred.plan(node_a.nics, 1 * MiB, RDV)
        assert pred.plan_cache_hits == 0
        assert pred.plan_cache_misses == 2

    def test_distinct_shapes_miss(self, sim, rig):
        node_a, pred = rig
        pred.plan(node_a.nics, 1 * MiB, RDV)
        pred.plan(node_a.nics, 1 * MiB + 1, RDV)
        pred.plan(node_a.nics, 1 * MiB, EAGER)
        pred.plan(node_a.nics, 1 * MiB, RDV, max_rails=1)
        pred.plan(node_a.nics, 1 * MiB, RDV, fixed_cost=3.0)
        assert pred.plan_cache_hits == 0
        assert pred.plan_cache_misses == 5


class _ReferencePredictor(CompletionPredictor):
    """``_solve`` as it read before one-rail subsets were priced off the
    curve: a ``SplitResult`` per subset, every time through
    ``transfer_time``, two-rail subsets through the reference dichotomy.
    Kept verbatim as the reference the current planner must match bit
    for bit."""

    def _solve(self, nics, offsets, size, mode, limit, fixed_cost):
        all_rails = [
            (self._planning_estimator(n), off) for n, off in zip(nics, offsets)
        ]
        best: Optional[Tuple[float, int, Tuple[int, ...], SplitResult]] = None
        for k in range(1, limit + 1):
            for subset_idx in itertools.combinations(range(len(nics)), k):
                rails = [all_rails[i] for i in subset_idx]
                if k == 1:
                    est, off = rails[0]
                    split = SplitResult(
                        sizes=[size],
                        predicted_times=[off + est.transfer_time(size, mode)],
                        iterations=0,
                    )
                elif k == 2:
                    split = reference_dichotomy_split(size, rails, mode)
                else:
                    split = waterfill_split(size, rails, mode)
                active = split.active_rails
                completion = split.predicted_completion + (
                    fixed_cost if active > 1 else 0.0
                )
                key = (completion, active)
                if best is None or key < (best[0], best[1]):
                    best = (completion, active, subset_idx, split)
        assert best is not None
        completion, _, subset_idx, split = best
        return subset_idx, tuple(split.sizes), split.iterations, completion


def _rail_nic(technology: str, bw_factor: float):
    """What ``_solve`` reads of a NIC: its technology and its bandwidth
    factor (below 1, the planner prices it through a scaled view)."""
    return SimpleNamespace(
        profile=SimpleNamespace(name=technology), bw_factor=bw_factor
    )


@st.composite
def solve_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    nics = [
        _rail_nic(draw(st.sampled_from(sorted(SAMPLED))), draw(BW_FACTORS))
        for _ in range(n)
    ]
    offsets = tuple(draw(OFFSETS) for _ in range(n))
    limit = draw(st.integers(min_value=1, max_value=n))
    fixed_cost = draw(st.sampled_from([0.0, 3.0, 6.0]))
    return nics, offsets, limit, fixed_cost


class TestSolveMatchesReference:
    """Pricing one-rail subsets off the curves changes no plan."""

    @given(solve_inputs(), SIZES, st.sampled_from([EAGER, RDV]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, inputs, size, mode):
        nics, offsets, limit, fixed_cost = inputs
        new = CompletionPredictor(SAMPLED)._solve(
            nics, offsets, size, mode, limit, fixed_cost
        )
        ref = _ReferencePredictor(SAMPLED)._solve(
            nics, offsets, size, mode, limit, fixed_cost
        )
        assert new[:3] == ref[:3]
        assert float_bits([new[3]]) == float_bits([ref[3]])


class TestEstimatorMemoAfterPlanning:
    """Rendezvous planning leaves nothing in the estimators' memos: the
    split solvers read the curves, and the memos hold plain sizes only,
    which the cyclic collector does not track."""

    def test_distinct_rendezvous_sizes_leave_the_rdv_memo_empty(self):
        profiles = ProfileStore.sample_rails(
            [rail_profile("myri10g"), rail_profile("quadrics")]
        )
        cluster = (
            ClusterBuilder.paper_testbed(strategy="hetero_split")
            .sampling(profiles=profiles)
            .build()
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        sizes = [64 * KiB + 40_961 * i for i in range(200)]
        for i, size in enumerate(sizes):
            b.irecv(source="node0", tag=i)
        sent = [a.isend("node1", size, tag=i) for i, size in enumerate(sizes)]
        cluster.run()
        assert all(m.mode is RDV for m in sent)
        assert sum(len(m.rails_used) == 2 for m in sent) > 100  # split, so planned
        estimators = list(
            {
                id(est): est
                for engine in cluster.engines.values()
                for est in engine.predictor.estimators.values()
            }.values()
        )
        assert estimators
        for est in estimators:
            assert est._dma_memo == {}
            assert len(est._eager_memo) <= 1  # the control packet's zero bytes
            for memo in (est._eager_memo, est._dma_memo):
                assert not any(gc.is_tracked(key) for key in memo)
