"""Turn a :class:`FaultSchedule` into plain simulator events.

The injector is the only piece of the fault subsystem that touches the
simulation: at :meth:`FaultInjector.arm` time it walks the schedule in
deterministic order and books one ``schedule_at`` per action.  From then
on faults are ordinary events interleaved with the engine's own — two
runs of the same cluster + schedule produce bit-identical traces.

Packet-loss rules get a ``random.Random`` seeded from the schedule seed
plus the rule's identity, so loss draws are reproducible and independent
of unrelated schedule edits.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Tuple

from repro.faults.schedule import FABRIC_ACTIONS, FaultAction, FaultSchedule
from repro.networks.nic import DropRule, Nic
from repro.networks.switch import FatTreeSwitch, Switch
from repro.networks.transfer import TransferKind
from repro.obs.hooks import Hooks
from repro.util.errors import ConfigurationError

#: fabric actions aimed at fat-tree spines rather than edge links
_SPINE_ACTIONS = frozenset(
    {"spine_down", "spine_up", "spine_degrade", "spine_restore"}
)


class FaultInjector:
    """Arms one fault schedule against one set of NICs."""

    def __init__(self, nics: Iterable[Nic], schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._by_qualified: Dict[str, Nic] = {}
        self._by_name: Dict[str, List[Nic]] = {}
        #: switches discovered behind the NICs, for fabric-targeted rules
        self._switches: Dict[str, Switch] = {}
        for nic in nics:
            self._by_qualified[nic.qualified_name] = nic
            self._by_name.setdefault(nic.name, []).append(nic)
            wire = getattr(nic, "wire", None)
            if isinstance(wire, Switch) and wire.name not in self._switches:
                self._switches[wire.name] = wire
        if not self._by_qualified:
            raise ConfigurationError("fault injector needs at least one NIC")
        self.sim = next(iter(self._by_qualified.values())).sim
        #: count of fault actions that have fired so far
        self.faults_fired: int = 0
        #: (simulated time, rule id, nic, action) per firing, in order —
        #: the audit trail the rule-ordering regression test reads
        self.fired_log: List[Tuple[float, int, str, str]] = []
        self._armed = False
        #: the cluster's hook stream; install_faults installs it
        self.hooks = Hooks()

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {len(self.schedule)} actions, "
            f"{self.faults_fired} fired>"
        )

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #

    def resolve(self, name: str) -> List[Nic]:
        """NICs a schedule entry addresses.

        Accepts a qualified name (``"node0.myri10g0"``), a bare NIC name
        (``"myri10g0"``, that NIC on every node) or a node wildcard
        (``"node0.*"``, every NIC of one node — node crash/restart).
        """
        if name in self._by_qualified:
            return [self._by_qualified[name]]
        if name in self._by_name:
            return list(self._by_name[name])
        if name.endswith(".*"):
            node = name[:-2]
            nics = [
                nic
                for nic in self._by_qualified.values()
                if nic.machine.name == node
            ]
            if nics:
                return nics
            raise ConfigurationError(
                f"fault schedule names unknown node {node!r}; known nodes: "
                f"{sorted({n.machine.name for n in self._by_qualified.values()})}"
            )
        raise ConfigurationError(
            f"fault schedule names unknown NIC {name!r}; "
            f"known: {sorted(self._by_qualified)}"
        )

    def resolve_fabric(self, name: str, action: str) -> List[tuple]:
        """Switch targets a fabric-targeted schedule entry addresses.

        Spine actions accept ``"fattree0.spine1"`` or the wildcard
        ``"fattree0.spine*"`` (also plain ``"fattree0.*"``); link actions
        accept ``"fattree0.node3"`` (the edge port of one node) or
        ``"fattree0.*"`` (every port).  Returns ``(switch, target,
        qualified)`` triples — ``target`` is a spine index or node name.
        """
        if "." not in name:
            raise ConfigurationError(
                f"fabric fault target {name!r} must be qualified "
                f"('<switch>.<port-or-spine>'); known switches: "
                f"{sorted(self._switches)}"
            )
        sw_name, _, target = name.partition(".")
        sw = self._switches.get(sw_name)
        if sw is None:
            raise ConfigurationError(
                f"fault schedule names unknown switch {sw_name!r}; "
                f"known: {sorted(self._switches)}"
            )
        if action in _SPINE_ACTIONS:
            if not isinstance(sw, FatTreeSwitch):
                raise ConfigurationError(
                    f"switch {sw_name!r} has no spines; {action!r} needs "
                    f"a fat-tree switch"
                )
            return [
                (sw, k, f"{sw_name}.spine{k}") for k in sw.spine_targets(target)
            ]
        return [
            (sw, node, f"{sw_name}.{node}") for node in sw.link_targets(target)
        ]

    # ------------------------------------------------------------------ #
    # arming
    # ------------------------------------------------------------------ #

    def arm(self) -> "FaultInjector":
        """Book every schedule action as a simulator event (idempotent).

        Rule ids are assigned here, in ``sorted_actions()`` order (time,
        then schedule insertion order), and the events are booked in
        rule-id order — the simulator breaks same-instant ties by booking
        sequence, so two rules at one timestamp always apply in rule-id
        order, independent of event-heap internals.  The invariant
        monitor's ``fault-rule-order`` check audits exactly this.
        """
        if self._armed:
            return self
        self._armed = True
        for rule_id, action in enumerate(self.schedule.sorted_actions()):
            if action.action in FABRIC_ACTIONS:
                # Fabric rules share the node-rule id space: a node rule
                # and a spine rule at one timestamp still apply in
                # rule-id (booking) order.
                for sw, target, qualified in self.resolve_fabric(
                    action.nic, action.action
                ):
                    self.sim.schedule_at(
                        max(action.time, self.sim.now),
                        self._fire_fabric,
                        action,
                        sw,
                        target,
                        qualified,
                        rule_id,
                    )
                continue
            for nic in self.resolve(action.nic):  # resolves eagerly: typos
                # surface at arm time, not mid-run
                self.sim.schedule_at(
                    max(action.time, self.sim.now),
                    self._fire,
                    action,
                    nic,
                    rule_id,
                )
        return self

    def _fire(self, action: FaultAction, nic: Nic, rule_id: int) -> None:
        self.faults_fired += 1
        self.fired_log.append(
            (self.sim.now, rule_id, nic.qualified_name, action.action)
        )
        # Silent actions (the calibration drift loop's test case) are
        # emitted too: the invariant rule-order check audits them, while
        # the obs subscribers ignore them.
        if self.hooks.on_fault:
            self.hooks.on_fault(
                rule_id, action, self.sim.now, nic, nic.qualified_name
            )
        if action.action == "down":
            nic.fail()
        elif action.action == "up":
            nic.recover()
        elif action.action == "degrade":
            nic.degrade(
                bw_factor=action.params.get("bw_factor", 1.0),
                extra_latency=action.params.get("extra_latency", 0.0),
            )
        elif action.action == "restore":
            nic.restore()
        elif action.action == "silent_degrade":
            nic.silent_degrade(action.params.get("bw_factor", 0.5))
        elif action.action == "silent_restore":
            nic.silent_restore()
        elif action.action == "drop_start":
            label = action.params.get("label", "loss")
            kinds = frozenset(
                TransferKind(k) for k in action.params.get("kinds", ["eager"])
            )
            rng = random.Random(
                f"{self.schedule.seed}:{nic.qualified_name}:{label}:{rule_id}"
            )
            nic.drop_rules.append(
                DropRule(
                    kinds,
                    action.params.get("probability", 1.0),
                    rng,
                    label=label,
                )
            )
        elif action.action == "drop_stop":
            label = action.params.get("label", "loss")
            nic.drop_rules = [
                r for r in nic.drop_rules if r.label != label
            ]
        else:  # pragma: no cover - schedule validation rejects these
            raise ConfigurationError(f"unknown fault action {action.action!r}")

    def _fire_fabric(
        self,
        action: FaultAction,
        sw: Switch,
        target,
        qualified: str,
        rule_id: int,
    ) -> None:
        self.faults_fired += 1
        self.fired_log.append(
            (self.sim.now, rule_id, qualified, action.action)
        )
        if self.hooks.on_fault:
            self.hooks.on_fault(rule_id, action, self.sim.now, sw, qualified)
        a = action.action
        if a == "link_down":
            sw.link_fail(target)
        elif a == "link_up":
            sw.link_recover(target)
        elif a == "link_degrade":
            sw.link_degrade(
                target,
                bw_factor=action.params.get("bw_factor", 1.0),
                extra_latency=action.params.get("extra_latency", 0.0),
            )
        elif a == "link_restore":
            sw.link_restore(target)
        elif a == "spine_down":
            sw.spine_fail(target)
        elif a == "spine_up":
            sw.spine_recover(target)
        elif a == "spine_degrade":
            sw.spine_degrade(
                target, bw_factor=action.params.get("bw_factor", 0.5)
            )
        elif a == "spine_restore":
            sw.spine_restore(target)
        else:  # pragma: no cover - FABRIC_ACTIONS gates the dispatch
            raise ConfigurationError(f"unknown fabric action {a!r}")


def install_faults(cluster, schedule: FaultSchedule) -> FaultInjector:
    """Build and arm an injector over every NIC of a built cluster."""
    nics = [
        nic
        for machine in cluster.machines.values()
        for nic in machine.nics
    ]
    injector = FaultInjector(nics, schedule)
    injector.hooks = cluster.hooks
    injector.arm()
    cluster.fault_injector = injector
    return injector
