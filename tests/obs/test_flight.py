"""Flight recorder: ring semantics, trigger sites, and chaos scenarios
that arm none."""

import json

import pytest

from repro.api import ClusterBuilder
from repro.core.invariants import InvariantViolation
from repro.faults.chaos import run_scenario
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, MAX_DUMPS, FlightRecorder
from repro.util.errors import ConfigurationError


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)

    def test_ring_keeps_only_the_most_recent_events(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record("send", float(i), "node0", {"i": i})
        assert fr.recorded == 10
        dump = fr.trigger("test", 10.0)
        assert [e["detail"]["i"] for e in dump["events"]] == [6, 7, 8, 9]

    def test_dump_is_self_contained_and_jsonable(self):
        fr = FlightRecorder()
        fr.record("send", 1.0, "node0", {"msg": 1})
        dump = fr.trigger("invariant-violation", 2.0, detail={"invariant": "x"})
        assert dump["reason"] == "invariant-violation"
        assert dump["time_us"] == 2.0
        assert dump["trigger"] == {"invariant": "x"}
        assert dump["events_recorded"] == 1
        assert fr.last_dump() is dump
        assert json.loads(json.dumps(fr.snapshot()))["triggered"] == 1

    def test_retention_evicts_oldest_dump(self):
        # A cascade of degraded-send dumps must not crowd out the
        # invariant violation that arrives after them.
        fr = FlightRecorder(capacity=2)
        for i in range(MAX_DUMPS + 3):
            fr.trigger(f"degraded-send-{i}", float(i))
        final = fr.trigger("invariant-violation", 99.0)
        assert len(fr.dumps) == MAX_DUMPS
        assert fr.dumps[-1] is final
        assert fr.last_dump()["reason"] == "invariant-violation"

    def test_clear_resets_everything(self):
        fr = FlightRecorder()
        fr.record("send", 1.0, "node0")
        fr.trigger("test", 1.0)
        fr.clear()
        assert fr.recorded == 0 and fr.triggered == 0
        assert fr.last_dump() is None

    def test_null_recorder_is_inert(self):
        """Observability off: the recorder is not subscribed; even a
        violation at drain leaves it empty."""
        cluster = ClusterBuilder.paper_testbed().invariants().build()
        sender, _ = cluster.sessions("node0", "node1")
        sender.isend("node1", "4M")
        cluster.run()
        with pytest.raises(InvariantViolation):
            cluster.check_drain()
        flight = cluster.obs.flight
        assert flight not in cluster.hooks.subscribers
        assert flight.recorded == 0 and flight.triggered == 0
        assert flight.last_dump() is None


def _stuck_cluster():
    """An unmatched 4M rendezvous send: parks at drain, audit raises.
    A flight recorder, the only obs surface, is subscribed to the
    cluster's hooks."""
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .invariants()
        .build()
    )
    flight = FlightRecorder()
    cluster.hooks.subscribe(flight)
    sender, _ = cluster.sessions("node0", "node1")
    msg = sender.isend("node1", "4M")
    cluster.run()
    return cluster, flight, msg


class TestClusterTriggers:
    def test_check_drain_violation_dumps_the_ring(self):
        cluster, flight, msg = _stuck_cluster()
        with pytest.raises(InvariantViolation):
            cluster.check_drain()
        dump = flight.last_dump()
        assert dump is not None
        assert dump["reason"] == "invariant-violation"
        assert dump["trigger"]["invariant"] == "drain-no-stuck"
        # the violating message's post is in the ring
        sends = [e for e in dump["events"] if e["kind"] == "send"]
        assert any(e["detail"]["msg"] == msg.msg_id for e in sends)

    def test_drain_stuck_dumps_before_degrading(self):
        cluster, flight, msg = _stuck_cluster()
        drained = cluster.drain_stuck()
        assert [m.msg_id for m in drained] == [msg.msg_id]
        dump = flight.last_dump()
        assert dump["reason"] == "drain-stuck"
        assert dump["trigger"]["drained"] == 1
        assert msg.msg_id in dump["trigger"]["msg_ids"]

    def test_engine_feeds_the_ring(self):
        cluster = (
            ClusterBuilder.paper_testbed(strategy="hetero_split")
            .observability()
            .build()
        )
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        a.isend("node1", "1M")
        cluster.run()
        flight = cluster.obs.flight
        assert flight.capacity == DEFAULT_FLIGHT_CAPACITY
        kinds = {e[2] for e in flight.events}
        assert "send" in kinds and "complete" in kinds
        assert flight.last_dump() is None  # nothing went wrong

    def test_obs_off_cluster_has_null_recorder(self):
        cluster = ClusterBuilder.paper_testbed().build()
        assert cluster.obs.on is False
        assert cluster.obs.flight not in cluster.hooks.subscribers


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
