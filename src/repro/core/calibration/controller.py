"""The closed-loop calibration controller.

One :class:`CalibrationController` is shared cluster-wide.  It has two
sides: the *drift feed* is a subscriber of the cluster's hook stream
(:mod:`repro.obs.hooks`) like the obs surfaces and the invariant
monitor, and the *planning handle* (``engine.calib``) is what the split
strategy consults.  With calibration off nothing is subscribed and
``engine.calib`` is ``None`` — no code path below ever runs and the
simulation is bit-identical to a build without calibration.

When on, the loop closes like this:

1. every fully-processed data chunk reaches :meth:`on_arrival`
   (receiver side, zero simulated cost) and its relative prediction
   error feeds the :class:`~repro.core.calibration.drift.DriftDetector`;
2. a drift trigger re-samples the suspect rail **online** via
   ``Cluster.resample(rail)`` — an in-sim ping-pong on a private
   testbed mirroring the rail's current (possibly silently degraded)
   speed, exponentially blended (weight :data:`BLEND`) into the
   estimator;
3. every rendezvous split consults :meth:`plan_rdv_data`, which walks
   the :class:`~repro.core.calibration.ladder.FallbackLadder`: full
   hetero split while confidence holds, iso split under partial trust,
   single most-trusted rail when the profiles cannot be compared at
   all.  At full trust, two-rail dichotomy splits are clamped to
   :data:`CLAMP_SHARE` when the rails' error bars overlap.

Unlike obs/invariants, an *enabled* controller deliberately changes
planning — that is its job.  It stays deterministic: every decision is
a pure function of simulated state.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List

from repro.core.calibration.drift import DriftDetector
from repro.core.calibration.ladder import FallbackLadder, TrustLevel
from repro.core.packets import TransferMode
from repro.util.refs import unbound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packets import Message
    from repro.networks.nic import Nic
    from repro.networks.transfer import Transfer

#: weight of each fresh profile blended into the estimator
#: (``new = (1-BLEND)·old + BLEND·fresh`` per grid point)
BLEND = 0.5
#: at full trust, the largest share a two-rail dichotomy split may give
#: one rail once the rails' confidence intervals overlap
CLAMP_SHARE = 0.75


def _nic(cluster, rail: str) -> "Nic":
    """The NIC whose qualified name is ``rail``."""
    return next(
        nic
        for machine in cluster.machines.values()
        for nic in machine.nics
        if nic.qualified_name == rail
    )


class ResampleRecord:
    """One online re-sample, for reports and experiments."""

    __slots__ = ("time", "rail", "technology", "trigger_band")

    def __init__(
        self, time: float, rail: str, technology: str, trigger_band: str
    ) -> None:
        self.time = time
        self.rail = rail
        self.technology = technology
        self.trigger_band = trigger_band

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "rail": self.rail,
            "technology": self.technology,
            "trigger_band": self.trigger_band,
        }


class CalibrationController:
    """Drift detection → online re-sampling → fallback ladder, wired.

    ``min_samples`` and ``cooldown`` configure the
    :class:`~repro.core.calibration.drift.DriftDetector`.
    """

    def __init__(self, min_samples: int = 3, cooldown: float = 300.0) -> None:
        self.detector = DriftDetector(min_samples=min_samples, cooldown=cooldown)
        self._ladders: Dict[str, FallbackLadder] = {}
        #: the cluster, held weakly: it owns this controller
        self._cluster = unbound
        #: each NIC's technology, by qualified name (names, not NICs: a
        #: NIC reaches this subscriber through its hook stream)
        self._techs: Dict[str, str] = {}
        #: simulated instant each technology's profile was last blended;
        #: errors from chunks predicted before that instant are ignored
        self._resampled_at: Dict[str, float] = {}
        self.resample_log: List[ResampleRecord] = []
        self.drift_events: int = 0
        self.clamped_splits: int = 0
        self.observations: int = 0

    def __repr__(self) -> str:
        return (
            f"<CalibrationController {self.observations} obs, "
            f"{self.drift_events} drift, "
            f"{len(self.resample_log)} resample(s)>"
        )

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def install(self, cluster) -> None:
        """Bind to a built cluster (called by ``install_calibration``)."""
        self._cluster = weakref.ref(cluster)
        self._techs = {
            nic.qualified_name: nic.profile.name
            for machine in cluster.machines.values()
            for nic in machine.nics
        }

    def ladder_for(self, node: str) -> FallbackLadder:
        ladder = self._ladders.get(node)
        if ladder is None:
            ladder = self._ladders[node] = FallbackLadder()
        return ladder

    # ------------------------------------------------------------------ #
    # the drift feed (receiver side; a hook-stream subscriber)
    # ------------------------------------------------------------------ #

    def on_arrival(self, transfer: "Transfer", nic: "Nic") -> None:
        """Fold one completed data chunk's prediction error into the
        detector; trigger an online re-sample when drift is declared.

        Runs at the instant the receive side finished processing — the
        same place the accuracy telemetry hooks — and costs zero
        simulated time; the re-sample itself runs on a *private*
        simulator, so in-flight traffic is untouched (quiesced).
        """
        if transfer.kind.is_control:
            return
        predicted = transfer.predicted_time
        if predicted is None or predicted <= 0.0 or transfer.t_complete is None:
            return
        rail = transfer.nic_name
        if not rail:
            return
        tech = self._techs.get(rail)
        if tech is None:
            return
        # Errors measured on chunks whose prediction predates the last
        # blend for this technology carry stale information — skipping
        # them keeps a fresh profile from being re-convicted instantly.
        stamped = self._resampled_at.get(tech)
        if (
            stamped is not None
            and transfer.t_submit is not None
            and transfer.t_submit < stamped
        ):
            return
        # Measure from the wire start, not the service start: between the
        # two the chunk may queue behind earlier transfers for the tx
        # engine, and that wait is *correct* behaviour, not drift — the
        # planner accounts for it separately via busy offsets.  Folding
        # it in convicts healthy rails the moment two messages overlap.
        start = transfer.t_wire_start
        if start is None:
            start = (
                transfer.t_service_start
                if transfer.t_service_start is not None
                else transfer.t_submit
            )
        if start is None:
            return
        actual = transfer.t_complete - start
        rel_error = abs(actual - predicted) / predicted
        band = self._band(transfer.size)
        now = nic.sim.now
        self.observations += 1
        if self.detector.observe(rail, band, rel_error, now):
            self.drift_events += 1
            cluster = self._cluster()
            hooks = cluster.hooks
            if hooks.on_drift:
                hooks.on_drift(
                    _nic(cluster, rail), band,
                    self.detector.band_error(rail, band),
                )
            self._resample(cluster, rail, band)

    @staticmethod
    def _band(size: int) -> str:
        from repro.obs.accuracy import size_bucket

        return size_bucket(size)

    # ------------------------------------------------------------------ #
    # online re-sampling
    # ------------------------------------------------------------------ #

    def _resample(self, cluster, rail: str, trigger_band: str) -> None:
        now = cluster.sim.now
        cluster.resample(rail, blend=BLEND)
        tech = self._techs[rail]
        self._resampled_at[tech] = now
        # The whole technology shares one estimator: forget the evidence
        # of every rail it backs, on every node.
        for qname, other in self._techs.items():
            if other == tech:
                self.detector.reset_rail(qname)
        self.resample_log.append(ResampleRecord(now, rail, tech, trigger_band))
        if cluster.hooks.on_resample:
            cluster.hooks.on_resample(_nic(cluster, rail))

    # ------------------------------------------------------------------ #
    # the planning path (strategy side)
    # ------------------------------------------------------------------ #

    def plan_rdv_data(self, strategy, msg: "Message", rails: List["Nic"]):
        """Ladder-aware rendezvous split (HeteroSplitStrategy delegates
        here while calibration is on)."""
        from repro.core.prediction import RailPlan
        from repro.core.split import equal_split

        engine = strategy.engine
        now = engine.sim.now
        confs = {
            n.qualified_name: self.detector.confidence(n.qualified_name)
            for n in rails
        }
        ladder = self.ladder_for(engine.machine.name)
        before = ladder.level
        level = ladder.update(min(confs.values()), now)
        if level is not before and engine.hooks.on_fallback:
            engine.hooks.on_fallback(
                rails[0], engine.machine.name, before, level,
                min(confs.values()),
            )
        if level is TrustLevel.FULL:
            plan = strategy.hetero_plan(msg, rails)
            plan = self._maybe_clamp(strategy, msg, plan)
        elif level is TrustLevel.PARTIAL:
            plan = RailPlan.over(rails, equal_split(msg.size, len(rails)))
        else:  # SINGLE: whole message on the most-trusted rail
            best = min(
                rails,
                key=lambda n: (-confs[n.qualified_name], n.qualified_name),
            )
            predicted = engine.predictor.predict(
                best, msg.size, TransferMode.RENDEZVOUS
            )
            plan = RailPlan.over([best], [msg.size], predicted)
        plan.confidence = confs
        plan.trust = level.name.lower()
        return plan

    def _maybe_clamp(self, strategy, msg: "Message", plan):
        """Bound a two-rail dichotomy when the error bars overlap.

        Each rail's predicted whole-message time ``t_i`` carries an
        uncertainty of ``±e_i·t_i`` (its band's error EWMA).  When the
        intervals ``[t_i(1−e_i), t_i(1+e_i)]`` intersect, the solver's
        preference between the rails is within noise — so no rail may
        receive more than :data:`CLAMP_SHARE` of the bytes.  With zero
        observed error the intervals are points and healthy planning is
        untouched.
        """
        if len(plan.nics) != 2:
            return plan
        band = self._band(msg.size)
        predictor = strategy.engine.predictor
        t = [
            predictor.planning_transfer_time(n, msg.size, TransferMode.RENDEZVOUS)
            for n in plan.nics
        ]
        e = [self.detector.band_error(n.qualified_name, band) for n in plan.nics]
        if e[0] == 0.0 and e[1] == 0.0:
            return plan
        if abs(t[0] - t[1]) > e[0] * t[0] + e[1] * t[1]:
            return plan
        total = plan.total
        cap = int(CLAMP_SHARE * total)
        hi = 0 if plan.sizes[0] >= plan.sizes[1] else 1
        if plan.sizes[hi] <= cap:
            return plan
        sizes = list(plan.sizes)
        sizes[hi] = cap
        sizes[1 - hi] = total - cap
        plan.sizes = sizes
        self.clamped_splits += 1
        hooks = strategy.engine.hooks
        if hooks.on_clamp:
            hooks.on_clamp(plan)
        return plan

    # ------------------------------------------------------------------ #
    # confidence / reporting
    # ------------------------------------------------------------------ #

    def confidence(self, rail: str) -> float:
        return self.detector.confidence(rail)

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state dump for reports and the CLI."""
        return {
            "observations": self.observations,
            "drift_events": self.drift_events,
            "clamped_splits": self.clamped_splits,
            "resamples": [r.as_dict() for r in self.resample_log],
            "confidence": {
                rail: self.detector.confidence(rail)
                for rail in self.detector.rails()
            },
            "bands": self.detector.snapshot(),
            "ladders": {
                node: {
                    "level": ladder.level.name,
                    "transitions": [
                        {
                            "time": t,
                            "from": frm.name,
                            "to": to.name,
                            "confidence": conf,
                        }
                        for t, frm, to, conf in ladder.transitions
                    ],
                }
                for node, ladder in sorted(self._ladders.items())
            },
        }

    def report(self) -> str:
        """Human-readable calibration summary."""
        lines = [
            f"calibration: {self.observations} observation(s), "
            f"{self.drift_events} drift event(s), "
            f"{len(self.resample_log)} resample(s), "
            f"{self.clamped_splits} clamped split(s)"
        ]
        for rail in self.detector.rails():
            lines.append(
                f"  {rail}: confidence {self.detector.confidence(rail):.3f}"
            )
        for rec in self.resample_log:
            lines.append(
                f"  resample @{rec.time:.1f}us: {rec.rail} "
                f"({rec.technology}, blend {BLEND}, "
                f"band {rec.trigger_band})"
            )
        for node, ladder in sorted(self._ladders.items()):
            for t, frm, to, conf in ladder.transitions:
                lines.append(
                    f"  fallback @{t:.1f}us: {node} {frm.name} -> {to.name} "
                    f"(confidence {conf:.3f})"
                )
        return "\n".join(lines)


def install_calibration(cluster, controller: CalibrationController) -> None:
    """Wire a controller into a built cluster (mirror of install_faults):
    subscribe its drift feed to the hook stream, hand every engine its
    planning handle, and arm prediction stamps (the feed reads them)."""
    controller.install(cluster)
    cluster.calibration = controller
    cluster.hooks.subscribe(controller)
    cluster.hooks.stamps = True
    for engine in cluster.engines.values():
        engine.calib = controller
