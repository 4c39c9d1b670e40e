"""FaultSchedule construction, validation, and (de)serialization."""

import pytest

from repro.faults import FaultAction, FaultSchedule
from repro.util.errors import ConfigurationError


class TestBuilders:
    def test_nic_down_with_duration_emits_pair(self):
        s = FaultSchedule().nic_down("myri10g0", at=100.0, duration=50.0)
        assert [(a.time, a.action) for a in s.actions] == [
            (100.0, "down"),
            (150.0, "up"),
        ]

    def test_times_accept_unit_strings(self):
        s = FaultSchedule().nic_down("myri10g0", at="1ms", duration="500us")
        assert [(a.time, a.action) for a in s.actions] == [
            (1000.0, "down"),
            (1500.0, "up"),
        ]

    def test_flapping_expands_to_explicit_pairs(self):
        s = FaultSchedule().flapping("q0", period=100.0, duty=0.25, cycles=3)
        assert [(a.time, a.action) for a in s.sorted_actions()] == [
            (0.0, "down"),
            (25.0, "up"),
            (100.0, "down"),
            (125.0, "up"),
            (200.0, "down"),
            (225.0, "up"),
        ]

    def test_flapping_validation(self):
        with pytest.raises(ConfigurationError, match="duty"):
            FaultSchedule().flapping("q0", period=100.0, duty=1.0)
        with pytest.raises(ConfigurationError, match="cycle"):
            FaultSchedule().flapping("q0", period=100.0, cycles=0)
        with pytest.raises(ConfigurationError, match="period"):
            FaultSchedule().flapping("q0", period=0.0)

    def test_degrade_with_duration_restores(self):
        s = FaultSchedule().degrade(
            "q0", at=10.0, bw_factor=0.5, extra_latency=2.0, duration=90.0
        )
        assert [a.action for a in s.actions] == ["degrade", "restore"]
        assert s.actions[0].params == {"bw_factor": 0.5, "extra_latency": 2.0}
        assert s.actions[1].time == 100.0

    def test_loss_probability_validated(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSchedule().eager_loss("q0", probability=1.5)

    def test_rdv_stall_targets_control_packets(self):
        s = FaultSchedule().rdv_stall("q0", probability=0.5, stop=100.0)
        assert s.actions[0].params["kinds"] == ["rdv-req", "rdv-ack"]
        assert s.actions[1].action == "drop_stop"

    def test_chaining_returns_self(self):
        s = FaultSchedule()
        assert s.nic_down("a", at=0.0) is s
        assert s.degrade("a", at=1.0, bw_factor=0.5) is s


class TestActionValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultAction(0.0, "n", "explode")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="past"):
            FaultAction(-1.0, "n", "down")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take"):
            FaultAction(0.0, "n", "down", {"bw_factor": 0.5})


def _config(action, params):
    """A config-file schedule with one action at t=50 µs."""
    return {
        "seed": 0,
        "events": [
            {"time": 50.0, "nic": "node0.myri10g0", "action": action,
             "params": params}
        ],
    }


def _load_both_ways(config):
    """Load a config-file schedule as a user does: on its own, and into
    a cluster builder (each must raise at load, not when it fires)."""
    from repro.api import ClusterBuilder

    with pytest.raises(ConfigurationError) as direct:
        FaultSchedule.from_dict(config)
    with pytest.raises(ConfigurationError) as built:
        ClusterBuilder.paper_testbed().faults(config)
    assert str(direct.value) == str(built.value)
    return str(direct.value)


class TestValueValidationAtLoad:
    """Bad parameter values fail when the schedule is loaded, with the
    rules the targets apply when a fault fires."""

    def test_bw_factor_given_as_string(self):
        assert "number" in _load_both_ways(_config("degrade", {"bw_factor": "0.5"}))

    def test_bw_factor_above_one_on_a_nic(self):
        assert "(0, 1]" in _load_both_ways(_config("degrade", {"bw_factor": 2.0}))

    def test_unknown_drop_kind(self):
        message = _load_both_ways(_config("drop_start", {"kinds": ["eagre"]}))
        assert "eagre" in message

    @pytest.mark.parametrize(
        "action, params",
        [
            ("degrade", {"bw_factor": True}),
            ("degrade", {"bw_factor": None}),
            ("degrade", {"bw_factor": 0.0}),
            ("degrade", {"extra_latency": -1.0}),
            ("degrade", {"extra_latency": "2us"}),
            ("silent_degrade", {"bw_factor": 1.5}),
            ("link_degrade", {"bw_factor": 0.0}),
            ("spine_degrade", {"bw_factor": -0.5}),
            ("drop_start", {"probability": 1.5}),
            ("drop_start", {"probability": "1"}),
            ("drop_start", {"kinds": "eager"}),
            ("drop_start", {"label": 7}),
            ("drop_stop", {"label": None}),
        ],
    )
    def test_each_rule(self, action, params):
        with pytest.raises(ConfigurationError, match=action):
            FaultAction(50.0, "n", action, params)

    @pytest.mark.parametrize(
        "action, params",
        [
            ("degrade", {"bw_factor": 1, "extra_latency": 0}),
            ("silent_degrade", {"bw_factor": 0.25}),
            ("link_degrade", {"bw_factor": 2.0, "extra_latency": 1.5}),
            ("spine_degrade", {"bw_factor": 4}),
            ("drop_start", {"probability": 0, "kinds": ("rdv-req", "rdv-ack")}),
            ("drop_stop", {"label": "loss"}),
        ],
    )
    def test_values_the_targets_take_still_load(self, action, params):
        assert FaultAction(50.0, "n", action, params).params == params


class TestRoundTrip:
    def make(self):
        return (
            FaultSchedule(seed=42)
            .nic_down("node0.myri10g0", at=150.0, duration=2000.0)
            .degrade("quadrics0", at=0.0, bw_factor=0.5, extra_latency=1.5)
            .eager_loss("node1.myri10g0", probability=0.1, start=20.0, stop=80.0)
        )

    def test_dict_round_trip_preserves_everything(self):
        original = self.make()
        restored = FaultSchedule.from_dict(original.to_dict())
        assert restored.seed == original.seed
        assert restored.to_dict() == original.to_dict()
        assert [
            (a.time, a.nic, a.action, a.params)
            for a in restored.sorted_actions()
        ] == [
            (a.time, a.nic, a.action, a.params)
            for a in original.sorted_actions()
        ]

    def test_json_round_trip(self):
        import json

        original = self.make()
        restored = FaultSchedule.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored.to_dict() == original.to_dict()

    def test_unknown_schedule_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown faults keys"):
            FaultSchedule.from_dict({"seed": 0, "events": [], "bogus": 1})

    def test_unknown_event_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault entry"):
            FaultSchedule.from_dict(
                {"events": [{"time": 0, "nic": "n", "action": "down", "x": 1}]}
            )

    def test_missing_event_field_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            FaultSchedule.from_dict({"events": [{"time": 0, "nic": "n"}]})

    def test_sorted_actions_is_stable_on_ties(self):
        s = FaultSchedule()
        s.nic_down("a", at=5.0)
        s.nic_down("b", at=5.0)
        assert [a.nic for a in s.sorted_actions()] == ["a", "b"]
