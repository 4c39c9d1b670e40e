"""What a chaos scenario subscribes: the invariant monitor (plus the
drift feed under ``calibration``), and no obs surface."""

from repro.api import ClusterBuilder
from repro.faults.chaos import run_scenario


def _scenario_cluster(monkeypatch, **settings):
    """The cluster one chaos scenario builds (seed 5, a clean seed)."""
    built = []
    build = ClusterBuilder.build

    def capture(self):
        built.append(build(self))
        return built[-1]

    monkeypatch.setattr(ClusterBuilder, "build", capture)
    assert run_scenario(5, **settings).ok
    (cluster,) = built
    return cluster


class TestChaosIntegration:
    def test_clean_scenario_ships_no_dump(self):
        result = run_scenario(5)
        assert result.ok and result.violation is None
        assert "violation" not in result.to_dict()

    def test_scenario_subscribes_only_the_monitor(self, monkeypatch):
        """A violation's post-mortem is the monitor's trail: no obs
        surface records, and no prediction stamp is computed."""
        cluster = _scenario_cluster(monkeypatch)
        assert cluster.hooks.subscribers == (cluster.invariants,)
        assert cluster.hooks.stamps is False
        assert cluster.obs.on is False

    def test_calibrated_scenario_adds_only_the_drift_feed(self, monkeypatch):
        cluster = _scenario_cluster(monkeypatch, silent=True, calibration=True)
        assert cluster.hooks.subscribers == (
            cluster.invariants, cluster.calibration,
        )
        assert cluster.obs.on is False
