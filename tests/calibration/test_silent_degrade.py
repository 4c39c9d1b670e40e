"""Silent degradation: slows the wire, announces nothing.

The whole point of the episode kind: ``is_degraded`` stays False, no
fault counter moves, no trace instant is emitted, the predictor's scaled
view never compensates — only the calibration drift loop can notice.
"""

import pytest

from repro.api.cluster import ClusterBuilder
from repro.faults import FaultSchedule
from repro.faults.chaos import (
    EPISODE_KINDS,
    SILENT_EPISODE_KINDS,
    ChaosSchedule,
)
from repro.networks import rail_profile
from repro.networks.nic import Nic
from repro.hardware import Machine
from repro.obs import Timeline
from repro.simtime import Simulator
from repro.util.errors import ConfigurationError


def nic():
    """A NIC on a bare machine, and the machine (a NIC holds its machine
    weakly, so the caller keeps it)."""
    machine = Machine(Simulator(), "node0")
    return Nic(machine, rail_profile("myri10g"), name="m0"), machine


def fault_lanes(timeline):
    return [lane for lane in timeline.lanes if lane.startswith("fault:")]


class TestNicSilentState:
    def test_stretches_tx_time_without_announcing(self):
        n, machine = nic()
        timeline = Timeline.record(machine)
        clean = n._rdv_tx_time(1 << 20)
        n.silent_degrade(0.5)
        n.sim.schedule_at(10.0, lambda: None)
        n.sim.run()
        assert n._rdv_tx_time(1 << 20) == pytest.approx(2.0 * clean)
        assert n.is_degraded is False
        assert fault_lanes(timeline) == []

    def test_restore_closes_a_silent_window(self):
        n, machine = nic()
        timeline = Timeline.record(machine)
        n.silent_degrade(0.5)
        n.sim.schedule_at(10.0, n.silent_restore)
        n.sim.run()
        clean = Nic(
            Machine(Simulator(), "x"), rail_profile("myri10g"), name="m0"
        )._rdv_tx_time(1 << 20)
        assert n._rdv_tx_time(1 << 20) == clean
        # ... and the silent spell never reached a fault lane.
        assert fault_lanes(timeline) == []

    def test_factor_one_is_bit_identical(self):
        """bw_factor * silent_bw_factor multiplies by 1.0 exactly —
        the healthy formula must not move a single float."""
        n, _ = nic()
        for size in (4096, 1 << 20, 4 << 20):
            before = n._rdv_tx_time(size)
            n.silent_degrade(0.5)
            n.silent_restore()
            assert n._rdv_tx_time(size) == before

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_bad_factor_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            nic()[0].silent_degrade(bad)


class TestInjectorSilence:
    def _run(self, silent: bool):
        builder = ClusterBuilder.paper_testbed()
        builder.observability()
        schedule = FaultSchedule()
        if silent:
            schedule.silent_degrade(
                "node0.myri10g0", at=10.0, bw_factor=0.5, duration=500.0
            )
        else:
            schedule.degrade(
                "node0.myri10g0", at=10.0, bw_factor=0.5
            )
        builder.faults(schedule)
        cluster = builder.build()
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        a.isend("node1", "1M")
        cluster.run()
        return cluster

    def test_silent_actions_emit_no_metrics_or_trace(self):
        cluster = self._run(silent=True)
        snap = cluster.metrics_snapshot()
        assert not any(k.startswith("faults.") for k in snap["counters"])
        assert not any(
            "silent" in str(e) for e in cluster.obs.tracer.events
        )
        # ... but the injector still counted the firings internally.
        assert cluster.fault_injector.faults_fired == 2

    def test_announced_actions_still_emit(self):
        cluster = self._run(silent=False)
        snap = cluster.metrics_snapshot()
        assert snap["counters"].get("faults.fired") == 1
        assert snap["counters"].get("faults.degrade") == 1


class TestChaosSilentPool:
    def test_episode_kinds_unchanged(self):
        """Extending EPISODE_KINDS would re-map rng.choice draws for every
        existing seed — the silent kind must live in a separate pool."""
        assert "silent_degrade" not in EPISODE_KINDS
        assert SILENT_EPISODE_KINDS == EPISODE_KINDS + ("silent_degrade",)

    def test_silent_flag_changes_the_pool_not_the_default(self):
        plain = ChaosSchedule(seed=42)
        again = ChaosSchedule(seed=42)
        assert plain.to_json() == again.to_json()
        assert plain.silent is False
        silent = ChaosSchedule(seed=42, silent=True)
        assert silent.silent is True

    def test_silent_roundtrips_through_json(self):
        silent = ChaosSchedule(seed=7, silent=True)
        clone = ChaosSchedule.from_json(silent.to_json())
        assert clone.silent is True
        assert clone.to_json() == silent.to_json()

    def test_some_seed_draws_a_silent_episode(self):
        kinds = set()
        for seed in range(30):
            kinds.update(
                ep["kind"] for ep in ChaosSchedule(seed=seed, silent=True).episodes
            )
        assert "silent_degrade" in kinds

    def test_schedule_builder_expands_silent_episodes(self):
        schedule = FaultSchedule()
        schedule.silent_degrade("node0.m0", at=5.0, bw_factor=0.4, duration=20.0)
        actions = [(a.time, a.action) for a in schedule.actions]
        assert (5.0, "silent_degrade") in actions
        assert (25.0, "silent_restore") in actions
