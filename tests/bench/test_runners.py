"""Tests for the measurement runners."""

import pytest

from repro.bench.runners import (
    build_paper_cluster,
    default_profiles,
    measure_oneway,
    measure_pair_completion,
    repo_root,
    sweep_oneway,
)
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return default_profiles()


class TestDefaultProfiles:
    def test_memoized_per_rail_set(self):
        assert default_profiles() is default_profiles()
        assert default_profiles(("myri10g",)) is not default_profiles()

    def test_default_and_explicit_rails_share_one_store(self):
        # Separate cache entries would sample the rails twice.
        assert default_profiles(("myri10g", "quadrics")) is default_profiles()
        assert default_profiles(["myri10g", "quadrics"]) is default_profiles()

    def test_contains_requested_technologies(self, profiles):
        assert "myri10g" in profiles and "quadrics" in profiles


class TestRepoRoot:
    def test_repo_root_finds_pyproject(self):
        assert (repo_root() / "pyproject.toml").exists()


class TestMeasureOneway:
    def test_returns_completed_message(self, profiles):
        cluster = build_paper_cluster("hetero_split", profiles=profiles)
        msg = measure_oneway(cluster, 64 * KiB)
        assert msg.latency > 0
        assert msg.bytes_received == 64 * KiB

    def test_warmup_does_not_change_steady_state(self, profiles):
        lat = []
        for warmup in (0, 2):
            cluster = build_paper_cluster("hetero_split", profiles=profiles)
            lat.append(measure_oneway(cluster, 1 * MiB, warmup=warmup).latency)
        assert lat[0] == pytest.approx(lat[1])


class TestMeasurePair:
    def test_completion_is_later_segment(self, profiles):
        cluster = build_paper_cluster("greedy", profiles=profiles)
        completion, m1, m2 = measure_pair_completion(cluster, 2 * KiB)
        assert completion == pytest.approx(
            max(m1.t_complete, m2.t_complete) - m1.t_post
        )
        assert m1.size == m2.size == 2 * KiB


class TestSweep:
    def test_sweep_latency_and_bandwidth(self, profiles):
        sizes = [64 * KiB, 1 * MiB]
        lat = sweep_oneway(
            "t", sizes, {"h": "hetero_split"}, metric="latency", profiles=profiles
        )
        bw = sweep_oneway(
            "t", sizes, {"h": "hetero_split"}, metric="bandwidth", profiles=profiles
        )
        # bandwidth = size / latency (unit conversion aside)
        from repro.util.units import bytes_per_us_to_mbps

        for i, size in enumerate(sizes):
            assert bw["h"].at(i) == pytest.approx(
                bytes_per_us_to_mbps(size / lat["h"].at(i))
            )

    def test_factory_specs_give_fresh_strategies(self, profiles):
        from repro.core.strategies import GreedyStrategy

        result = sweep_oneway(
            "t",
            [1 * KiB],
            {"g": lambda: GreedyStrategy()},
            metric="latency",
            profiles=profiles,
        )
        assert result["g"].at(0) > 0

    def test_unknown_metric_rejected(self, profiles):
        with pytest.raises(ConfigurationError):
            sweep_oneway("t", [1024], {"h": "greedy"}, metric="jitter", profiles=profiles)

    def test_deterministic_across_runs(self, profiles):
        kwargs = dict(
            sizes=[256 * KiB],
            strategies={"h": "hetero_split"},
            metric="latency",
            profiles=profiles,
        )
        a = sweep_oneway("t", **kwargs)
        b = sweep_oneway("t", **kwargs)
        assert a["h"].values == b["h"].values
