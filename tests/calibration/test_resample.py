"""Online re-sampling: OnlineSampler probes + Cluster.resample(rail)."""

import pytest

from repro.api.cluster import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core.sampling import NetworkSampler, OnlineSampler
from repro.faults import FaultSchedule
from repro.util.errors import ConfigurationError


def degraded_cluster(bw_factor=0.5, **build_kw):
    schedule = FaultSchedule()
    schedule.silent_degrade("node0.myri10g0", at=0.0, bw_factor=bw_factor)
    builder = ClusterBuilder.paper_testbed(**build_kw)
    builder.faults(schedule)
    cluster = builder.build()
    cluster.run(until=1.0)  # let the degrade action fire
    return cluster


class TestOnlineSampler:
    def test_mirrors_silent_factor_onto_probes(self):
        cluster = degraded_cluster(bw_factor=0.5)
        live = cluster.machines["node0"].nics[0]
        assert live.silent_bw_factor == 0.5
        clean = NetworkSampler().sample(live.profile)
        seen = OnlineSampler(live).sample(live.profile)
        assert seen.dma.times[-1] == pytest.approx(
            2.0 * clean.dma.times[-1], rel=0.01
        )

    def test_healthy_rail_measures_clean(self):
        cluster = ClusterBuilder.paper_testbed().build()
        live = cluster.machines["node0"].nics[0]
        clean = NetworkSampler().sample(live.profile)
        seen = OnlineSampler(live).sample(live.profile)
        assert list(seen.dma.times) == list(clean.dma.times)

    def test_probe_runs_on_private_simulator(self):
        """Quiescence: the in-sim ping-pong must not advance the live
        clock or disturb in-flight traffic."""
        cluster = degraded_cluster()
        before = cluster.sim.now
        events = cluster.sim.events_processed
        live = cluster.machines["node0"].nics[0]
        OnlineSampler(live).sample(live.profile)
        assert cluster.sim.now == before
        assert cluster.sim.events_processed == events


class TestClusterResampleRail:
    def test_blend_moves_estimator_toward_truth(self):
        cluster = degraded_cluster(bw_factor=0.5)
        old = cluster.profiles.estimators["myri10g"]
        cluster.resample(rail="node0.myri10g0", blend=0.5)
        new = cluster.profiles.estimators["myri10g"]
        # Truth is 2x; a 0.5 blend lands at 1.5x.
        assert new.dma.times[-1] == pytest.approx(
            1.5 * old.dma.times[-1], rel=0.01
        )

    def test_blend_one_replaces_outright(self):
        cluster = degraded_cluster(bw_factor=0.5)
        old = cluster.profiles.estimators["myri10g"]
        cluster.resample(rail="node0.myri10g0", blend=1.0)
        new = cluster.profiles.estimators["myri10g"]
        assert new.dma.times[-1] == pytest.approx(
            2.0 * old.dma.times[-1], rel=0.01
        )

    def test_technology_name_rejected(self):
        """``rail`` names one live NIC; a technology name is not one."""
        cluster = degraded_cluster()
        with pytest.raises(ConfigurationError, match="node0.myri10g0"):
            cluster.resample(rail="myri10g")

    @pytest.mark.parametrize("blend", [0.0, 1.5])
    def test_bad_blend_rejected(self, blend):
        cluster = degraded_cluster()
        with pytest.raises(ConfigurationError, match="blend"):
            cluster.resample(rail="node0.myri10g0", blend=blend)

    def test_untouched_technology_keeps_its_estimator(self):
        cluster = degraded_cluster()
        quadrics = cluster.profiles.estimators["quadrics"]
        cluster.resample(rail="node0.myri10g0", blend=0.5)
        assert cluster.profiles.estimators["quadrics"] is quadrics

    def test_swaps_predictor_on_every_engine(self):
        cluster = degraded_cluster()
        before = {n: e.predictor for n, e in cluster.engines.items()}
        cluster.resample(rail="node0.myri10g0")
        for name, engine in cluster.engines.items():
            assert engine.predictor is not before[name]
            assert (
                engine.predictor.estimators["myri10g"]
                is cluster.profiles.estimators["myri10g"]
            )

    def test_shared_profile_store_is_not_mutated(self):
        """default_profiles() is cached and shared across builds — the
        targeted resample must copy-on-write, never blend in place."""
        shared = default_profiles(("myri10g", "quadrics"))
        baseline = shared.estimators["myri10g"]
        builder = ClusterBuilder.paper_testbed().sampling(profiles=shared)
        schedule = FaultSchedule()
        schedule.silent_degrade("node0.myri10g0", at=0.0, bw_factor=0.5)
        builder.faults(schedule)
        cluster = builder.build()
        cluster.run(until=1.0)
        cluster.resample(rail="node0.myri10g0", blend=1.0)
        assert shared.estimators["myri10g"] is baseline
        assert cluster.profiles is not shared

    def test_unknown_rail_rejected(self):
        cluster = degraded_cluster()
        with pytest.raises(ConfigurationError):
            cluster.resample(rail="node9.ethernet0")
