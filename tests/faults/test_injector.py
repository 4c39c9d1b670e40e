"""FaultInjector: NIC resolution, arming, and deterministic firing."""

import pytest

from repro.faults import FaultInjector, FaultSchedule
from repro.faults.schedule import ACTIONS
from repro.hardware import Machine
from repro.networks import Nic, TransferKind, Wire, rail_profile
from repro.networks.nic import DropRule
from repro.networks.switch import FatTreeSwitch
from repro.obs import Timeline
from repro.simtime import Simulator
from repro.util.errors import ConfigurationError


def two_node_rail(sim):
    driver = rail_profile("myri10g")
    a = Machine(sim, "node0")
    b = Machine(sim, "node1")
    Wire(Nic(a, driver, name="myri10g0"), Nic(b, driver, name="myri10g0"))
    return a, b


class TestResolution:
    def test_qualified_name_hits_one_nic(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        inj = FaultInjector(list(a.nics) + list(b.nics), FaultSchedule())
        assert [n.qualified_name for n in inj.resolve("node0.myri10g0")] == [
            "node0.myri10g0"
        ]

    def test_bare_name_hits_every_node(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        inj = FaultInjector(list(a.nics) + list(b.nics), FaultSchedule())
        assert sorted(n.qualified_name for n in inj.resolve("myri10g0")) == [
            "node0.myri10g0",
            "node1.myri10g0",
        ]

    def test_unknown_nic_raises_with_known_list(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        inj = FaultInjector(list(a.nics), FaultSchedule())
        with pytest.raises(ConfigurationError, match="node0.myri10g0"):
            inj.resolve("ghost0")

    def test_typo_surfaces_at_arm_time(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        schedule = FaultSchedule().nic_down("ghost0", at=10.0)
        with pytest.raises(ConfigurationError, match="ghost0"):
            FaultInjector(list(a.nics), schedule).arm()

    def test_no_nics_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one NIC"):
            FaultInjector([], FaultSchedule())


class TestFiring:
    def test_down_up_cycle_fires_in_order(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        nic = a.nics[0]
        schedule = FaultSchedule().nic_down("node0.myri10g0", at=10.0, duration=5.0)
        inj = FaultInjector(list(a.nics) + list(b.nics), schedule).arm()
        timeline = Timeline.record(a)
        assert nic.is_up
        sim.run(until=12.0)
        assert not nic.is_up
        sim.run(until=20.0)
        assert nic.is_up
        assert inj.faults_fired == 2
        assert [
            (w.start, w.end, w.label) for w in timeline.intervals("fault:myri10g0")
        ] == [(10.0, 15.0, "down")]

    def test_bare_name_downs_both_endpoints(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        schedule = FaultSchedule().nic_down("myri10g0", at=10.0)
        FaultInjector(list(a.nics) + list(b.nics), schedule).arm()
        sim.run(until=11.0)
        assert not a.nics[0].is_up and not b.nics[0].is_up

    def test_degrade_and_restore(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        nic = a.nics[0]
        schedule = FaultSchedule().degrade(
            "node0.myri10g0", at=5.0, bw_factor=0.25, extra_latency=3.0, duration=10.0
        )
        FaultInjector(list(a.nics), schedule).arm()
        sim.run(until=6.0)
        assert nic.is_degraded
        assert nic.bw_factor == 0.25 and nic.extra_latency == 3.0
        sim.run(until=20.0)
        assert not nic.is_degraded
        assert nic.bw_factor == 1.0 and nic.extra_latency == 0.0

    def test_drop_rules_start_and_stop(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        nic = a.nics[0]
        schedule = FaultSchedule().eager_loss(
            "node0.myri10g0", probability=0.5, start=1.0, stop=9.0
        )
        FaultInjector(list(a.nics), schedule).arm()
        sim.run(until=2.0)
        assert len(nic.drop_rules) == 1
        assert nic.drop_rules[0].label == "eager-loss"
        sim.run(until=10.0)
        assert nic.drop_rules == []

    def test_arm_is_idempotent(self):
        sim = Simulator()
        a, b = two_node_rail(sim)
        schedule = FaultSchedule().nic_down("node0.myri10g0", at=10.0)
        inj = FaultInjector(list(a.nics), schedule)
        inj.arm()
        inj.arm()
        sim.run()
        assert inj.faults_fired == 1

    def test_drop_rngs_are_seed_deterministic(self):
        def draws(seed):
            sim = Simulator()
            a, b = two_node_rail(sim)
            schedule = FaultSchedule(seed=seed).eager_loss(
                "node0.myri10g0", probability=0.5
            )
            FaultInjector(list(a.nics), schedule).arm()
            sim.run()
            rule = a.nics[0].drop_rules[0]
            return [rule.rng.random() for _ in range(8)]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)


def four_nodes_on_a_fat_tree(sim):
    """One NIC ``port`` on each of node0..node3, behind the two-spine
    fat tree ``ft``."""
    switch = FatTreeSwitch(name="ft", switch_latency=0.3, pod_size=2, spines=2)
    nics = [
        Nic(Machine(sim, f"node{i}"), rail_profile("myri10g"), name="port")
        for i in range(4)
    ]
    for nic in nics:
        switch.attach(nic)
    return switch, nics


class TestActionDefaults:
    """A config-file schedule may omit an action's params; the injector
    then runs the action's method with the action table's defaults."""

    @pytest.mark.parametrize("action", sorted(ACTIONS))
    def test_omitted_params_take_the_table_defaults(self, action, monkeypatch):
        method, defaults = ACTIONS[action]
        sim = Simulator()
        switch, nics = four_nodes_on_a_fat_tree(sim)
        nic = nics[0]
        target, device, args = {
            "link": ("ft.node1", switch, ("node1",)),
            "spine": ("ft.spine1", switch, (1,)),
        }.get(action.split("_")[0], ("node0.port", nic, ()))
        calls = []
        if method is not None:
            orig = getattr(type(device), method)

            def spy(self, *a, **kw):
                calls.append((self, a, kw))
                return orig(self, *a, **kw)

            monkeypatch.setattr(type(device), method, spy)
        if action == "drop_stop":
            nic.drop_rules.append(DropRule(frozenset(), 0.0, None))
        schedule = FaultSchedule.from_dict(
            {"events": [{"time": 1.0, "nic": target, "action": action}]}
        )
        FaultInjector(nics, schedule).arm()
        sim.run()
        if method is not None:
            assert calls == [(device, args, defaults)]
        if action == "spine_degrade":
            assert switch._spine_bw[1] == 0.5
        elif action == "silent_degrade":
            assert nic.silent_bw_factor == 0.5
        elif action == "drop_start":
            [rule] = nic.drop_rules
            assert rule.kinds == frozenset({TransferKind.EAGER})
            assert (rule.probability, rule.label) == (1.0, "loss")
        elif action == "drop_stop":
            assert nic.drop_rules == []
