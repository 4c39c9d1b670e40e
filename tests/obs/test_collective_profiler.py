"""Collective critical-path profiler + selector calibration loop."""

import json

import pytest

from repro.api.collectives import AlgorithmSelector, striped_transfer_time
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.faults.chaos import _reset_id_counters
from repro.hardware.topology import Fabric
from repro.obs import validate_chrome_trace
from repro.obs.collective import (
    critical_path,
    measured_hop_table,
    predicted_vs_measured,
    stragglers,
)

RAILS = ("myri10g", "quadrics")
RANKS = 8
SIZE = 2 * 1024 * 1024 // RANKS


@pytest.fixture(scope="module")
def ring_world():
    """Obs-on fat-tree world after one profiled ring alltoall."""
    world = MpiWorld.create(
        fabric=Fabric.fat_tree(RANKS, rails=RAILS),
        profiles=default_profiles(RAILS),
        observability=True,
    )
    _reset_id_counters()

    def program(comm):
        yield from comm.alltoall(SIZE, algorithm="ring")

    world.spawn_all(program)
    world.run()
    return world


@pytest.fixture(scope="module")
def hops(ring_world):
    return ring_world.cluster.obs.collectives.hops()


class TestHopCapture:
    def test_every_rank_profiled(self, ring_world):
        ops = ring_world.cluster.obs.collectives.op_rows()
        assert len(ops) == RANKS
        assert {op["rank"] for op in ops} == set(range(RANKS))
        assert all(op["collective"] == "alltoall" for op in ops)
        assert all(op["algorithm"] == "ring" for op in ops)

    def test_hops_completed_and_sorted(self, hops):
        assert len(hops) >= RANKS * (RANKS - 1)
        assert all(h["t_complete"] is not None for h in hops)
        posts = [h["t_post"] for h in hops]
        assert posts == sorted(posts)

    def test_hops_carry_predictions(self, hops):
        assert all(
            h["predicted_us"] is not None and h["predicted_us"] > 0
            for h in hops
        )


class TestCriticalPath:
    def test_ring_serializes_into_a_chain(self, hops):
        chain = critical_path(hops)
        assert len(chain) > 1  # a ring round-trips, unlike a send storm
        last = max(h["t_complete"] for h in hops)
        assert chain[-1]["t_complete"] == last

    def test_chain_links_are_causal(self, hops):
        chain = critical_path(hops)
        for prev, cur in zip(chain, chain[1:]):
            assert prev["t_complete"] <= cur["t_post"]
            assert cur["gap_us"] == cur["t_post"] - prev["t_complete"]
        assert chain[0]["gap_us"] == 0.0

    def test_empty_hops_empty_path(self):
        assert critical_path([]) == []


class TestStragglers:
    def test_attribution_covers_ranks_slowest_first(self, hops):
        rows = stragglers(hops)
        assert {r["rank"] for r in rows} == set(range(RANKS))
        lasts = [r["last_complete_us"] for r in rows]
        assert lasts == sorted(lasts, reverse=True)
        assert all(r["hops"] > 0 and r["hop_time_us"] > 0 for r in rows)


class TestPredictedVsMeasured:
    def test_table_compares_model_to_reality(self, hops):
        table = predicted_vs_measured(hops)
        assert len(table) >= 1
        for row in table:
            assert row["measured_us"] > 0
            assert row["ratio"] == pytest.approx(
                row["measured_us"] / row["predicted_us"]
            )

    def test_contention_makes_hops_slower_than_model(self, hops):
        # The selector's model is contention-blind; a fat tree funnels 8
        # ranks through 2 spines, so measured must exceed predicted.
        assert all(r["ratio"] > 1.0 for r in predicted_vs_measured(hops))

    def test_measured_table_matches(self, hops):
        table = measured_hop_table(hops)
        by_size = {r["size"]: r["measured_us"] for r in predicted_vs_measured(hops)}
        assert table == by_size


class TestSelectorCalibration:
    def test_calibrate_overrides_measured_sizes(self, ring_world, hops):
        selector = AlgorithmSelector(ring_world.cluster.profiles.estimators)
        table = measured_hop_table(hops)
        scale = selector.calibrate(table)
        assert scale == selector.hop_scale > 0
        for size, measured in table.items():
            assert selector.hop(size) == measured

    def test_calibrate_scales_unmeasured_sizes(self, ring_world, hops):
        selector = AlgorithmSelector(ring_world.cluster.profiles.estimators)
        unmeasured = 12_345  # not a hop size the alltoall used
        base = striped_transfer_time(selector.estimators, unmeasured)
        selector.calibrate(measured_hop_table(hops))
        assert selector.hop(unmeasured) == pytest.approx(
            base * selector.hop_scale
        )

    def test_calibrate_is_deterministic(self, ring_world, hops):
        table = measured_hop_table(hops)
        a = AlgorithmSelector(ring_world.cluster.profiles.estimators)
        b = AlgorithmSelector(ring_world.cluster.profiles.estimators)
        assert a.calibrate(table) == b.calibrate(table)

    def test_world_selector_keeps_calibration(self, ring_world, hops):
        # MpiWorld.selector() memoizes, so a calibrated model survives
        # into the next algorithm="auto" pick.
        ring_world.selector().calibrate(measured_hop_table(hops))
        assert ring_world.selector().hop_scale > 1.0

    def test_empty_table_is_a_noop(self, ring_world):
        selector = AlgorithmSelector(ring_world.cluster.profiles.estimators)
        before = selector.hop(SIZE)
        assert selector.calibrate({}) == 1.0
        assert selector.hop(SIZE) == before


class TestTraceFlush:
    def test_flush_is_idempotent(self, ring_world):
        cluster = ring_world.cluster
        first = cluster.chrome_trace()
        second = cluster.chrome_trace()
        assert validate_chrome_trace(first) == []
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_snapshot_is_jsonable(self, ring_world):
        snap = ring_world.cluster.obs.collectives.snapshot()
        assert json.loads(json.dumps(snap)) is not None
        assert len(snap["ops"]) == RANKS
        assert snap["critical_path"]


class TestNullProfiler:
    """Observability off: the profiler is not subscribed and sees no op."""

    def test_all_methods_are_noops(self):
        from repro.api.cluster import ClusterBuilder

        cluster = (
            ClusterBuilder("hetero_split")
            .fabric(Fabric.flat(4, rails=RAILS))
            .sampling(profiles=default_profiles(RAILS))
            .build()
        )
        world = MpiWorld.from_cluster(cluster)

        def program(comm):
            yield from comm.alltoall(1024, algorithm="ring")

        world.spawn_all(program)
        world.run()
        profiler = cluster.obs.collectives
        assert cluster.obs.on is False
        assert profiler not in cluster.hooks.subscribers
        assert profiler.hops() == []
        assert profiler.op_rows() == []
        assert profiler.snapshot()["critical_path"] == []
