"""Declarative fault schedules: what breaks, where, and when.

A :class:`FaultSchedule` is a plain list of timestamped
:class:`FaultAction` records plus a seed.  It never touches the
simulator — :class:`~repro.faults.injector.FaultInjector` turns it into
ordinary scheduled events, which is what keeps faulty runs
bit-reproducible: the schedule is data, the injection is deterministic
event delivery, and every random draw (packet loss) comes from an RNG
seeded from ``(schedule.seed, rule identity)``.

NIC addressing: actions name NICs either fully qualified
(``"node0.myri10g0"``) or bare (``"myri10g0"``), in which case the
action applies to that NIC on *every* node — convenient for killing both
endpoints of a point-to-point rail at once.  The wildcard form
``"node0.*"`` addresses every NIC of one node — the node-level fault
class (crash/restart) used by :meth:`FaultSchedule.node_crash`.
``link_*`` and ``spine_*`` actions name a switch port or spine instead:
``"fattree0.node3"`` (the edge link of one node), ``"fattree0.*"``
(every edge link), ``"fattree0.spine1"`` or ``"fattree0.spine*"``.

Times accept anything :func:`repro.util.units.parse_time` does
(``"2ms"``, ``"500us"``, plain µs floats).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.networks.transfer import TransferKind
from repro.util.errors import ConfigurationError
from repro.util.units import parse_time

#: every fault action: the method its target runs (a NIC's, or a
#: switch's for ``link_*`` and ``spine_*``) and that method's parameters,
#: with the defaults the injector applies where a schedule omits them.
#: ``drop_start``/``drop_stop`` name no method: the injector installs or
#: removes the seeded drop rule itself.
ACTIONS: Dict[str, Tuple[Optional[str], Dict[str, Any]]] = {
    "down": ("fail", {}),
    "up": ("recover", {}),
    "degrade": ("degrade", {"bw_factor": 1.0, "extra_latency": 0.0}),
    "restore": ("restore", {}),
    "silent_degrade": ("silent_degrade", {"bw_factor": 0.5}),
    "silent_restore": ("silent_restore", {}),
    "drop_start": (
        None, {"probability": 1.0, "kinds": ("eager",), "label": "loss"}
    ),
    "drop_stop": (None, {"label": "loss"}),
    "link_down": ("link_fail", {}),
    "link_up": ("link_recover", {}),
    "link_degrade": ("link_degrade", {"bw_factor": 1.0, "extra_latency": 0.0}),
    "link_restore": ("link_restore", {}),
    "spine_down": ("spine_fail", {}),
    "spine_up": ("spine_recover", {}),
    "spine_degrade": ("spine_degrade", {"bw_factor": 0.5}),
    "spine_restore": ("spine_restore", {}),
}

#: actions whose ``bw_factor`` may only slow the target down (a NIC's
#: ``degrade``/``silent_degrade`` reject a factor above 1); the link and
#: spine actions take any positive factor
_SLOWDOWN_ONLY = ("degrade", "silent_degrade")

#: the transfer kinds a drop rule may name
_KINDS = frozenset(kind.value for kind in TransferKind)


def _check_values(action: str, params: Dict[str, Any]) -> None:
    """Raise :class:`ConfigurationError` for a parameter value the
    action's target would reject when the fault fires (the rules of
    ``Nic.degrade``, ``Switch.link_degrade``, ``DropRule`` and
    ``TransferKind``), so that a bad schedule fails when it is loaded."""

    def bad(name: str, rule: str) -> ConfigurationError:
        return ConfigurationError(
            f"fault action {action!r}: {name} {rule}, got {params[name]!r}"
        )

    for name in ("bw_factor", "extra_latency", "probability"):
        value = params.get(name, 0.0)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise bad(name, "must be a number")
    if "bw_factor" in params:
        factor = params["bw_factor"]
        if action in _SLOWDOWN_ONLY:
            if not 0.0 < factor <= 1.0:
                raise bad("bw_factor", "must be in (0, 1]")
        elif not factor > 0.0:
            raise bad("bw_factor", "must be positive")
    if "extra_latency" in params and not params["extra_latency"] >= 0.0:
        raise bad("extra_latency", "must be >= 0")
    if "probability" in params and not 0.0 <= params["probability"] <= 1.0:
        raise bad("probability", "must be in [0, 1]")
    if "kinds" in params:
        kinds = params["kinds"]
        if not isinstance(kinds, (list, tuple)) or not all(
            isinstance(k, str) and k in _KINDS for k in kinds
        ):
            raise bad("kinds", f"must list transfer kinds of {sorted(_KINDS)}")
    if "label" in params and not isinstance(params["label"], str):
        raise bad("label", "must be a string")


@dataclass(frozen=True)
class FaultAction:
    """One timestamped fault transition aimed at one NIC, switch port or
    spine (or a name addressing several)."""

    time: float
    nic: str
    action: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"fault scheduled in the past: {self.time}")
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"known: {sorted(ACTIONS)}"
            )
        unknown = set(self.params) - set(ACTIONS[self.action][1])
        if unknown:
            raise ConfigurationError(
                f"fault action {self.action!r} does not take {sorted(unknown)}"
            )
        _check_values(self.action, self.params)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "time": self.time,
            "nic": self.nic,
            "action": self.action,
        }
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultAction":
        if not isinstance(data, dict):
            raise ConfigurationError(f"fault entry must be a mapping, got {data!r}")
        unknown = set(data) - {"time", "nic", "action", "params"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault entry keys: {sorted(unknown)}"
            )
        for key in ("time", "nic", "action"):
            if key not in data:
                raise ConfigurationError(f"fault entry missing {key!r}: {data!r}")
        return cls(
            time=parse_time(data["time"]),
            nic=str(data["nic"]),
            action=str(data["action"]),
            params=dict(data.get("params", {})),
        )


class FaultSchedule:
    """Builder for deterministic fault timelines.

    All mutators return ``self`` for chaining::

        schedule = (
            FaultSchedule(seed=7)
            .nic_down("node0.myri10g0", at="1ms", duration="500us")
            .degrade("quadrics0", at=0.0, bw_factor=0.5)
            .eager_loss("node1.myri10g0", probability=0.1, start="2ms")
        )
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.actions: List[FaultAction] = []

    def __len__(self) -> int:
        return len(self.actions)

    def __repr__(self) -> str:
        return f"<FaultSchedule seed={self.seed} actions={len(self.actions)}>"

    def _add(self, time, nic: str, action: str, **params) -> "FaultSchedule":
        self.actions.append(
            FaultAction(parse_time(time), str(nic), action, params)
        )
        return self

    def _window(
        self, target: str, action: str, end_action: str, at, duration, **params
    ) -> "FaultSchedule":
        """``action`` on ``target`` at ``at``; ``end_action`` undoes it
        ``duration`` later when a duration is given."""
        start = parse_time(at)
        self._add(start, target, action, **params)
        if duration is not None:
            self._add(start + parse_time(duration), target, end_action)
        return self

    def _flap(
        self, what: str, target: str, action: str, end_action: str,
        period, duty: float, start, cycles: int,
    ) -> "FaultSchedule":
        """``cycles`` windows of ``action``, one per ``period``, each
        ``duty`` of it long (``what`` names the builder in errors)."""
        if not 0.0 < duty < 1.0:
            raise ConfigurationError(f"{what} duty must be in (0, 1), got {duty}")
        if cycles < 1:
            raise ConfigurationError(f"{what} needs >= 1 cycle, got {cycles}")
        p = parse_time(period)
        if p <= 0:
            raise ConfigurationError(f"{what} period must be positive, got {p}")
        t = parse_time(start)
        for _ in range(cycles):
            self._window(target, action, end_action, t, duty * p)
            t += p
        return self

    # ------------------------------------------------------------------ #
    # link up/down
    # ------------------------------------------------------------------ #

    def nic_down(self, nic: str, at, duration=None) -> "FaultSchedule":
        """Take ``nic`` down at ``at``; back up after ``duration`` if given."""
        return self._window(nic, "down", "up", at, duration)

    def nic_up(self, nic: str, at) -> "FaultSchedule":
        return self._add(at, nic, "up")

    def node_crash(self, node: str, at, duration=None) -> "FaultSchedule":
        """Crash a whole node: every one of its NICs goes down at ``at``.

        A node-level fault, one class above per-NIC outages: *all* rails
        out of ``node`` die in the same instant (transfers pending on any
        of them abort; packets in flight towards them are lost), and —
        when ``duration`` is given — all come back together, modelling a
        reboot.  Addresses the injector's ``"<node>.*"`` wildcard.
        """
        return self._window(f"{node}.*", "down", "up", at, duration)

    def flapping(
        self, nic: str, period, duty: float = 0.5, start=0.0, cycles: int = 1
    ) -> "FaultSchedule":
        """A flapping link: each ``period``, down for ``duty`` of it.

        ``duty`` is the *down* fraction — ``duty=0.5`` means the rail is
        dead half the time.  Expands to ``cycles`` explicit down/up pairs
        so the resulting schedule round-trips through config files.
        """
        return self._flap(
            "flapping", nic, "down", "up", period, duty, start, cycles
        )

    # ------------------------------------------------------------------ #
    # degradation
    # ------------------------------------------------------------------ #

    def degrade(
        self, nic: str, at, bw_factor: float = 1.0, extra_latency=0.0,
        duration=None,
    ) -> "FaultSchedule":
        """Stretch ``nic``'s timings from ``at`` (optionally for ``duration``)."""
        return self._window(
            nic, "degrade", "restore", at, duration,
            bw_factor=float(bw_factor), extra_latency=parse_time(extra_latency),
        )

    def restore(self, nic: str, at) -> "FaultSchedule":
        return self._add(at, nic, "restore")

    def silent_degrade(
        self, nic: str, at, bw_factor: float = 0.5, duration=None
    ) -> "FaultSchedule":
        """Slow ``nic`` *without announcing it* — no fault event, no
        ``is_degraded`` flip, no obs instant.  The predictor keeps using
        the stale healthy profile; only the calibration drift loop
        (``repro.core.calibration``) can notice the error growth."""
        return self._window(
            nic, "silent_degrade", "silent_restore", at, duration,
            bw_factor=float(bw_factor),
        )

    def silent_restore(self, nic: str, at) -> "FaultSchedule":
        return self._add(at, nic, "silent_restore")

    # ------------------------------------------------------------------ #
    # packet loss
    # ------------------------------------------------------------------ #

    def eager_loss(
        self, nic: str, probability: float, start=0.0, stop=None,
        label: str = "eager-loss",
    ) -> "FaultSchedule":
        """Drop outgoing eager packets with ``probability`` from ``start``."""
        return self._loss(nic, probability, ("eager",), start, stop, label)

    def rdv_stall(
        self, nic: str, probability: float, start=0.0, stop=None,
        label: str = "rdv-stall",
    ) -> "FaultSchedule":
        """Lose rendezvous control packets (stalled handshakes)."""
        return self._loss(
            nic, probability, ("rdv-req", "rdv-ack"), start, stop, label
        )

    def _loss(
        self, nic: str, probability: float, kinds, start, stop, label: str
    ) -> "FaultSchedule":
        self._add(
            start, nic, "drop_start",
            probability=float(probability), kinds=list(kinds), label=label,
        )
        if stop is not None:
            self._add(parse_time(stop), nic, "drop_stop", label=label)
        return self

    # ------------------------------------------------------------------ #
    # fabric faults: switch links and spines
    # ------------------------------------------------------------------ #

    def link_down(self, link: str, at, duration=None) -> "FaultSchedule":
        """Kill a switch edge link (``"fattree0.node3"``, or
        ``"fattree0.*"`` for every port) at ``at``; a dead link rejects
        traffic in both directions.  Back up after ``duration`` if given."""
        return self._window(link, "link_down", "link_up", at, duration)

    def link_up(self, link: str, at) -> "FaultSchedule":
        return self._add(at, link, "link_up")

    def link_degrade(
        self, link: str, at, bw_factor: float = 1.0, extra_latency=0.0,
        duration=None,
    ) -> "FaultSchedule":
        """Stretch one edge link's drain/latency from ``at``."""
        return self._window(
            link, "link_degrade", "link_restore", at, duration,
            bw_factor=float(bw_factor), extra_latency=parse_time(extra_latency),
        )

    def link_restore(self, link: str, at) -> "FaultSchedule":
        return self._add(at, link, "link_restore")

    def spine_down(self, spine: str, at, duration=None) -> "FaultSchedule":
        """Kill a fat-tree spine (``"fattree0.spine1"``, or
        ``"fattree0.spine*"`` for all of them).  A dead spine serializes
        nothing: flows hashed onto it re-route (adaptive) or drop
        (static)."""
        return self._window(spine, "spine_down", "spine_up", at, duration)

    def spine_up(self, spine: str, at) -> "FaultSchedule":
        return self._add(at, spine, "spine_up")

    def spine_degrade(
        self, spine: str, at, bw_factor: float = 0.5, duration=None
    ) -> "FaultSchedule":
        """Slow one spine's serialization rate by ``bw_factor``."""
        return self._window(
            spine, "spine_degrade", "spine_restore", at, duration,
            bw_factor=float(bw_factor),
        )

    def spine_restore(self, spine: str, at) -> "FaultSchedule":
        return self._add(at, spine, "spine_restore")

    def port_flapping(
        self, link: str, period, duty: float = 0.5, start=0.0, cycles: int = 1
    ) -> "FaultSchedule":
        """A flapping switch port: each ``period``, down for ``duty`` of
        it — the fabric-side analogue of :meth:`flapping`."""
        return self._flap(
            "port_flapping", link, "link_down", "link_up",
            period, duty, start, cycles,
        )

    # ------------------------------------------------------------------ #
    # (de)serialization — the config-file round trip
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"faults section must be a mapping, got {data!r}"
            )
        unknown = set(data) - {"seed", "events"}
        if unknown:
            raise ConfigurationError(
                f"unknown faults keys: {sorted(unknown)}"
            )
        schedule = cls(seed=int(data.get("seed", 0)))
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ConfigurationError(
                f"faults events must be a list, got {events!r}"
            )
        for entry in events:
            schedule.actions.append(FaultAction.from_dict(entry))
        return schedule

    def sorted_actions(self) -> List[FaultAction]:
        """Actions in firing order: by time, ties by insertion order."""
        indexed = sorted(
            enumerate(self.actions), key=lambda pair: (pair[1].time, pair[0])
        )
        return [a for _, a in indexed]
