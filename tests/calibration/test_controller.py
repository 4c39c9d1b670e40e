"""CalibrationController end-to-end: the closed drift-defense loop.

Silent degrade → prediction-error EWMA crosses the threshold → online
re-sample on a private simulator → blended profile swapped into every
engine's predictor → ladder recovers — all inside one simulated run.
"""

import pytest

from repro.api.cluster import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core.calibration import CalibrationController
from repro.core.calibration.controller import CLAMP_SHARE
from repro.faults import FaultSchedule
from repro.util.errors import ConfigurationError

RAIL = "node0.myri10g0"
SIZE = 4 * 1024 * 1024
COUNT = 12


def build(degraded=True, observability=False, calibration=True, **calib_kw):
    calib_kw.setdefault("cooldown", 1000.0)
    calib_kw.setdefault("min_samples", 2)
    builder = ClusterBuilder.paper_testbed(strategy="hetero_split").sampling(
        profiles=default_profiles(("myri10g", "quadrics"))
    )
    if observability:
        builder.observability()
    if calibration:
        builder.calibration(**calib_kw)
    if degraded:
        schedule = FaultSchedule()
        schedule.silent_degrade(RAIL, at=0.0, bw_factor=0.5)
        builder.faults(schedule)
    return builder.build()


def sequential_stream(cluster, count=COUNT):
    src, dst = cluster.sessions("node0", "node1")

    def driver():
        for i in range(count):
            dst.irecv(source="node0", tag=i)
            msg = src.isend("node1", SIZE, tag=i)
            yield from src.wait(msg)

    cluster.sim.spawn(driver())
    cluster.run()


class TestClosedLoop:
    def test_detects_and_resamples_under_silent_degrade(self):
        cluster = build()
        sequential_stream(cluster)
        snap = cluster.calibration_snapshot()
        assert snap["drift_events"] >= 1
        assert len(snap["resamples"]) >= 1
        rec = snap["resamples"][0]
        assert rec["rail"] == RAIL
        assert rec["technology"] == "myri10g"

    def test_one_conviction_per_excursion(self):
        """Cooldown plus stale-sample suppression: the stream keeps
        flowing after the blend, but the freshly-trusted profile is not
        instantly re-convicted by in-flight chunks."""
        cluster = build(cooldown=10_000_000.0)
        sequential_stream(cluster)
        snap = cluster.calibration_snapshot()
        assert snap["drift_events"] == 1
        assert len(snap["resamples"]) == 1

    def test_ladder_recovers_full_trust(self):
        cluster = build()
        sequential_stream(cluster)
        snap = cluster.calibration_snapshot()
        ladder = snap["ladders"]["node0"]
        assert ladder["transitions"], "confidence collapse never reached the ladder"
        assert ladder["level"] == "FULL"

    def test_healthy_stream_never_triggers(self):
        cluster = build(degraded=False)
        sequential_stream(cluster)
        snap = cluster.calibration_snapshot()
        assert snap["observations"] > 0
        assert snap["drift_events"] == 0
        assert snap["resamples"] == []
        for conf in snap["confidence"].values():
            assert conf >= 0.9
        for ladder in snap["ladders"].values():
            assert ladder["level"] == "FULL"
            assert ladder["transitions"] == []


class TestObsIntegration:
    def test_counters_and_trace_instants(self):
        cluster = build(observability=True)
        sequential_stream(cluster)
        counters = cluster.metrics_snapshot()["counters"]
        assert counters.get("calibration.drift_detected", 0) >= 1
        assert counters.get("calibration.resamples", 0) >= 1
        assert counters.get("calibration.fallback_transitions", 0) >= 1
        names = [str(e) for e in cluster.obs.tracer.events]
        assert any("drift-detected" in n for n in names)
        assert any("resample" in n for n in names)
        assert any("fallback" in n for n in names)

    def test_confidence_gauges_exported(self):
        cluster = build(observability=True)
        sequential_stream(cluster)
        gauges = cluster.metrics_snapshot()["gauges"]
        keys = [k for k in gauges if k.startswith("calibration.")]
        assert any(k.endswith(".confidence") for k in keys)

    def test_silent_controller_without_obs(self):
        """Calibration on, observability off: the loop still closes and
        the guarded obs plumbing stays inert."""
        cluster = build(observability=False)
        sequential_stream(cluster)
        assert len(cluster.calibration_snapshot()["resamples"]) >= 1


class TestClamp:
    @staticmethod
    def busy_quadrics_split(seeded_error):
        """Bytes per node0 rail of one 4 MiB send planned while
        quadrics1 is 2,000 µs busy (which pushes the dichotomy past
        CLAMP_SHARE on myri10g0), after seeding ``seeded_error`` into
        both rails' 4M band."""
        # min_samples keeps the seeded error (above DRIFT_THRESHOLD)
        # from convicting a rail: a resample would reset the evidence.
        # Confidence stays above FULL_EXIT, so the ladder stays FULL.
        cluster = build(degraded=False, min_samples=100)
        node0 = cluster.machines["node0"]
        if seeded_error:
            for nic in node0.nics:
                cluster.calibration.detector.observe(
                    nic.qualified_name, "4M", seeded_error, now=0.0
                )
        node0.nic_by_name("quadrics1").inject_busy(2000.0)
        src, dst = cluster.sessions("node0", "node1")
        dst.irecv(source="node0")
        msg = src.isend("node1", SIZE)
        cluster.run()
        split = {
            t.nic_name: t.size for t in msg.transfers if not t.kind.is_control
        }
        return split, cluster.calibration.clamped_splits

    def test_overlapping_error_bars_clamp_the_split(self):
        """Two rails whose confidence intervals overlap: the dichotomy's
        preference is within noise, so neither rail may take more than
        CLAMP_SHARE of the bytes."""
        split, clamped = self.busy_quadrics_split(seeded_error=0.0)
        assert clamped == 0
        assert split[RAIL] > CLAMP_SHARE * SIZE
        split, clamped = self.busy_quadrics_split(seeded_error=0.18)
        assert clamped == 1
        cap = int(CLAMP_SHARE * SIZE)
        assert split == {RAIL: cap, "node0.quadrics1": SIZE - cap}

    def test_zero_error_never_clamps(self):
        cluster = build(degraded=False)
        sequential_stream(cluster, count=2)
        assert cluster.calibration.clamped_splits == 0


class TestAccessors:
    def test_snapshot_and_report_raise_when_off(self):
        cluster = build(calibration=False, degraded=False)
        assert cluster.calibration is None
        with pytest.raises(ConfigurationError):
            cluster.calibration_snapshot()
        with pytest.raises(ConfigurationError):
            cluster.calibration_report()

    def test_engines_hold_the_null_singleton_when_off(self):
        """Off: no planning handle, no drift feed on the hook stream."""
        cluster = build(calibration=False, degraded=False)
        assert not any(
            isinstance(s, CalibrationController)
            for s in cluster.hooks.subscribers
        )
        for engine in cluster.engines.values():
            assert engine.calib is None

    def test_engines_share_the_live_controller_when_on(self):
        cluster = build(degraded=False)
        assert isinstance(cluster.calibration, CalibrationController)
        assert cluster.calibration in cluster.hooks.subscribers
        assert cluster.hooks.stamps is True
        for engine in cluster.engines.values():
            assert engine.calib is cluster.calibration
            assert engine.hooks is cluster.hooks

    def test_report_narrates_the_loop(self):
        cluster = build()
        sequential_stream(cluster)
        report = cluster.calibration_report()
        assert "drift event" in report
        assert "resample @" in report
        assert "confidence" in report
