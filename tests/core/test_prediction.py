"""Tests for CompletionPredictor: point predictions and rail selection."""

import pytest

from repro.core.packets import TransferMode
from repro.core.prediction import CompletionPredictor, RailPlan
from repro.core.sampling import NetworkSampler, ProfileStore
from repro.networks import ElanDriver, MxDriver, Transfer, TransferKind
from repro.util.errors import ConfigurationError, SamplingError
from repro.util.units import KiB, MiB

from tests.conftest import wire_pair

RDV = TransferMode.RENDEZVOUS
EAGER = TransferMode.EAGER


@pytest.fixture(scope="module")
def profiles():
    return ProfileStore.sample_drivers([MxDriver(), ElanDriver()])


@pytest.fixture
def rig(sim, profiles):
    node_a, node_b = wire_pair(sim, [MxDriver(), ElanDriver()])
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
        from repro.networks import TcpDriver

        node_a, _ = wire_pair(sim, [TcpDriver()])
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
        from repro.core.split import SplitResult

        node_a, _ = rig
        with pytest.raises(ConfigurationError):
            RailPlan(
                nics=[node_a.nics[0]],
                sizes=[1, 2],
                predicted_completion=0.0,
                split=SplitResult(sizes=[3], predicted_times=[0.0], iterations=0),
            )

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
        assert second.split.sizes == first.split.sizes
        assert second.split.predicted_times == first.split.predicted_times
        assert second.split.iterations == first.split.iterations

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
