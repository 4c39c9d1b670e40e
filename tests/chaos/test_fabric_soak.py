"""Fabric chaos: mixed-episode soaks, shrink to fabric faults, sharding.

The fat-tree chaos pool draws spine outages, link flaps and pod
partitions alongside the node episodes.  These tests pin the robustness
properties the pool exists to exercise: clean seeds stay clean, a
planted routing bug is caught by the route-liveness invariant and
shrunk to a 1-minimal *fabric* episode set, and sharding the soak over
processes changes nothing but wall-clock.
"""

import functools
import json

import pytest

from repro.bench.parallel import soak_artifact
from repro.faults import chaos
from repro.networks.switch import FatTreeSwitch
from repro.util.errors import ConfigurationError

# Seed 16's default fat-tree schedule mixes two spine outages with two
# link flaps, a loss burst and a degrade storm — the mixed node+fabric
# shrink fixture.
BUGGY_SEED = 16


def _static_hash(self, src_idx, dst_idx):
    """A planted bug: ECMP that ignores spine health entirely."""
    return self._spine_for(src_idx, dst_idx)


class TestFabricSoak:
    def test_clean_seeds_survive_the_fat_tree_pool(self):
        report = chaos.soak(range(3), shape="fat_tree")
        assert [r.ok for r in report.scenarios] == [True, True, True]
        assert all(r.faults_fired > 0 for r in report.scenarios)

    def test_flat_shape_runs_the_same_pool(self):
        assert chaos.run_scenario(0, shape="flat").ok
        # No spines on a flat crossbar: the pool must never draw a
        # spine outage there.
        for seed in range(10):
            sched = chaos._default_chaos(
                seed,
                "flat",
                8,
                chaos.DEFAULT_HORIZON,
                chaos.DEFAULT_INTENSITY,
            )
            assert all(
                e["kind"] != "spine_outage" for e in sched.episodes
            ), seed


class TestPaperOnlySettings:
    """The silent pool and the drift loop exist on the paper shape only;
    a fabric shape rejects them instead of soaking the plain pool."""

    @pytest.mark.parametrize("setting", ["silent", "calibration"])
    @pytest.mark.parametrize("shape", ["flat", "fat_tree"])
    def test_scenario_rejects_them(self, shape, setting):
        with pytest.raises(ConfigurationError, match="paper shape only"):
            chaos.run_scenario(0, shape=shape, **{setting: True})

    def test_soak_rejects_them_before_any_scenario_runs(self, monkeypatch):
        ran = []
        real = chaos.run_scenario

        @functools.wraps(real)
        def counting(seed, **settings):
            ran.append(seed)
            return real(seed, **settings)

        monkeypatch.setattr(chaos, "run_scenario", counting)
        with pytest.raises(ConfigurationError, match="paper shape only"):
            chaos.soak(range(3), shape="flat", silent=True, calibration=True)
        assert ran == []


class TestPlantedRoutingBug:
    def test_health_blind_ecmp_trips_route_liveness(self, monkeypatch):
        monkeypatch.setattr(FatTreeSwitch, "_select_spine", _static_hash)
        result = chaos.run_scenario(BUGGY_SEED, shape="fat_tree")
        assert not result.ok
        assert "route-liveness" in str(result.violation)
        # A violating fabric seed ships its own post-mortem: the trail
        # of hook observations leading up to the violation.
        assert result.violation.trail
        assert result.to_dict()["violation"]["trail"] == result.violation.trail

    def test_shrink_reduces_mixed_schedule_to_the_fabric_episode(
        self, monkeypatch
    ):
        monkeypatch.setattr(FatTreeSwitch, "_select_spine", _static_hash)
        base = chaos._default_chaos(
            BUGGY_SEED,
            "fat_tree",
            8,
            chaos.DEFAULT_HORIZON,
            chaos.DEFAULT_INTENSITY,
        )
        base_kinds = [e["kind"] for e in base.episodes]
        assert "spine_outage" in base_kinds
        assert any(k not in chaos.FABRIC_EPISODE_KINDS for k in base_kinds)

        shrunk = chaos.shrink(BUGGY_SEED, shape="fat_tree")
        assert [e["kind"] for e in shrunk.episodes] == ["spine_outage"]
        # The shrunk schedule keeps the fabric spec, so it replays
        # against the same switch names...
        assert shrunk.fabric == base.fabric
        replay = chaos.run_scenario(
            BUGGY_SEED, chaos=shrunk, shape="fat_tree"
        )
        assert not replay.ok
        # ...and is 1-minimal: dropping the remaining episode passes.
        empty = chaos.ChaosSchedule(
            BUGGY_SEED,
            nics=shrunk.nics,
            nodes=shrunk.nodes,
            horizon=shrunk.horizon,
            intensity=shrunk.intensity,
            episodes=[],
            fabric=shrunk.fabric,
        )
        assert chaos.run_scenario(
            BUGGY_SEED, chaos=empty, shape="fat_tree"
        ).ok


class TestShardedByteIdentity:
    def test_jobs_1_and_jobs_2_agree_byte_for_byte(self):
        seeds = range(6)
        serial = soak_artifact(chaos.soak(seeds, jobs=1, shape="fat_tree"))
        sharded = soak_artifact(chaos.soak(seeds, jobs=2, shape="fat_tree"))
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            sharded, sort_keys=True
        )
