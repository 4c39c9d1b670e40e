"""Turn a :class:`FaultSchedule` into plain simulator events.

The injector is the only piece of the fault subsystem that touches the
simulation: at :meth:`FaultInjector.arm` time it walks the schedule in
deterministic order and books one ``schedule_at`` per action and target
(a NIC, a switch port or a spine).  From then on faults are ordinary
events interleaved with the engine's own — two runs of the same
cluster + schedule produce bit-identical traces.  Every firing runs the
one method :data:`~repro.faults.schedule.ACTIONS` names for its action.

Packet-loss rules get a ``random.Random`` seeded from the schedule seed
plus the rule's identity, so loss draws are reproducible and independent
of unrelated schedule edits.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Tuple

from repro.faults.schedule import ACTIONS, FaultAction, FaultSchedule
from repro.networks.nic import DropRule, Nic
from repro.networks.switch import FatTreeSwitch, Switch
from repro.networks.transfer import TransferKind
from repro.obs.hooks import Hooks
from repro.util.errors import ConfigurationError


class FaultInjector:
    """Arms one fault schedule against one set of NICs and the switches
    behind them."""

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
        #: (simulated time, rule id, target, action) per firing, in order —
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

    def targets(self, action: FaultAction) -> List[Tuple[Any, tuple, str]]:
        """``(device, leading args, qualified name)`` per target of one
        schedule entry: ``(nic, (), "node0.myri10g0")`` for NIC actions
        (addressed as :meth:`resolve` reads them), ``(switch, ("node3",),
        "fattree0.node3")`` for link actions and ``(switch, (1,),
        "fattree0.spine1")`` for spine actions.

        Link actions accept ``"fattree0.node3"`` (the edge port of one
        node) or ``"fattree0.*"`` (every port); spine actions
        ``"fattree0.spine1"`` or ``"fattree0.spine*"`` (also plain
        ``"fattree0.*"``).  The switch answers which ports or spines a
        name covers.
        """
        name, kind = action.nic, action.action
        if not kind.startswith(("link_", "spine_")):
            return [(nic, (), nic.qualified_name) for nic in self.resolve(name)]
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
        if kind.startswith("link_"):
            return [
                (sw, (node,), f"{sw_name}.{node}")
                for node in sw.link_targets(target)
            ]
        if not isinstance(sw, FatTreeSwitch):
            raise ConfigurationError(
                f"switch {sw_name!r} has no spines; {kind!r} needs "
                f"a fat-tree switch"
            )
        return [
            (sw, (k,), f"{sw_name}.spine{k}") for k in sw.spine_targets(target)
        ]

    # ------------------------------------------------------------------ #
    # arming
    # ------------------------------------------------------------------ #

    def arm(self) -> "FaultInjector":
        """Book every schedule action as a simulator event (idempotent).

        Rule ids are assigned here, in ``sorted_actions()`` order (time,
        then schedule insertion order), and the events are booked in
        rule-id order, one per target — the simulator breaks
        same-instant ties by booking sequence, so two rules at one
        timestamp always apply in rule-id order, whether they hit NICs,
        links or spines, independent of event-heap internals.  The
        invariant monitor's ``fault-rule-order`` check audits exactly
        this.  Targets resolve here too: typos surface at arm time, not
        mid-run.
        """
        if self._armed:
            return self
        self._armed = True
        for rule_id, action in enumerate(self.schedule.sorted_actions()):
            at = max(action.time, self.sim.now)
            for device, args, qualified in self.targets(action):
                self.sim.schedule_at(
                    at, self._fire, action, device, args, qualified, rule_id
                )
        return self

    def _fire(
        self, action: FaultAction, device, args: tuple, qualified: str,
        rule_id: int,
    ) -> None:
        now = self.sim.now
        self.faults_fired += 1
        self.fired_log.append((now, rule_id, qualified, action.action))
        # Silent actions (the calibration drift loop's test case) are
        # emitted too: the invariant rule-order check audits them, while
        # the obs subscribers ignore them.
        if self.hooks.on_fault:
            self.hooks.on_fault(rule_id, action, now, device, qualified)
        method, defaults = ACTIONS[action.action]
        params = {**defaults, **action.params}
        if method is not None:
            getattr(device, method)(*args, **params)
        elif action.action == "drop_start":
            label = params["label"]
            rng = random.Random(
                f"{self.schedule.seed}:{qualified}:{label}:{rule_id}"
            )
            kinds = frozenset(TransferKind(k) for k in params["kinds"])
            device.drop_rules.append(
                DropRule(kinds, params["probability"], rng, label=label)
            )
        else:  # drop_stop
            device.drop_rules = [
                r for r in device.drop_rules if r.label != params["label"]
            ]


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
