"""Rendezvous splitting strategies: iso, static-ratio, and hetero (sampled).

These are the Fig. 8 series:

* :class:`IsoSplitStrategy` — equal-size chunks over every rail
  (Fig. 1b): optimal only for homogeneous rails; on Myri+Quadrics the
  fast rail idles while the slow chunk drains (§IV-A: ≈670 µs at 4 MiB).
* :class:`StaticRatioStrategy` — OpenMPI's approach (§II-A): one fixed
  ratio from the rails' *maximum* bandwidths, whatever the message size —
  "a split ratio for a 8 MB message may not fit a 256 KB message".
* :class:`HeteroSplitStrategy` — the paper's contribution: per-message
  equal-*time* split from sampled curves plus NIC idle prediction and
  rail-subset selection (Figs. 1c/2, §II-B).

Eager packets are not split by any of these (that needs idle cores — see
:mod:`repro.core.strategies.multicore`); they ride the fastest rail.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.packets import Message, TransferMode
from repro.core.prediction import CompletionPredictor, RailPlan
from repro.core.strategies.base import Strategy
from repro.networks.nic import Nic
from repro.util.errors import ConfigurationError


def striped_transfer_time(
    estimators: Sequence["NicEstimator"],
    size: int,
    mode: Optional[TransferMode] = None,
) -> float:
    """Predicted one-hop time of ``size`` bytes striped across rails.

    The planning primitive the collective-algorithm cost models share
    with :class:`HeteroSplitStrategy`: an idle-fabric equal-time
    waterfill over the sampled curves — i.e. "what does one hop cost
    when the engine hetero-splits it across these rails?".  ``mode``
    defaults to the paper's eager/rendezvous choice at the slowest
    rail's threshold, matching what the engine will actually do.
    """
    from repro.core.split import waterfill_split

    if not estimators:
        raise ConfigurationError("striped_transfer_time needs >= 1 estimator")
    if size <= 0:
        return 0.0
    if mode is None:
        threshold = min(est.rdv_threshold() for est in estimators)
        mode = (
            TransferMode.RENDEZVOUS if size > threshold else TransferMode.EAGER
        )
    if mode is TransferMode.EAGER:
        # Eager packets ride one rail (no eager splitting without idle
        # cores); the fastest sampled curve is the hop cost.
        return min(est.transfer_time(size, mode) for est in estimators)
    rails = [(est, 0.0) for est in estimators]
    return waterfill_split(size, rails, mode).predicted_completion


class IsoSplitStrategy(Strategy):
    """Equal-size chunks over all rails (Fig. 1b / Fig. 8 "Iso-split")."""

    name = "iso_split"

    def plan_rdv_data(self, msg: Message) -> RailPlan:
        from repro.core.split import equal_split

        rails = self.rails_to(msg.dest, msg)
        return RailPlan.over(rails, equal_split(msg.size, len(rails)))


class StaticRatioStrategy(Strategy):
    """Fixed bandwidth-ratio split, computed once (OpenMPI-style, §II-A).

    The weights come from the sampled large-message plateaus — the "maximum
    available bandwidth of each network" — and never adapt to the actual
    message size or to rail occupancy, which is precisely the imprecision
    the paper criticizes.
    """

    name = "static_ratio"

    def plan_rdv_data(self, msg: Message) -> RailPlan:
        from repro.core.split import ratio_split

        rails = self.rails_to(msg.dest, msg)
        weights = [
            self.predictor.estimator_for(n).plateau_bandwidth() for n in rails
        ]
        return RailPlan.over(rails, ratio_split(msg.size, weights))


class HeteroSplitStrategy(Strategy):
    """THE paper's strategy: sampled equal-time split with idle prediction.

    Parameters
    ----------
    max_rails:
        Cap on the number of rails per message (``None`` = all available).
    use_idle_prediction:
        When False, busy offsets are ignored (ablation A3) — the split
        only balances the sampled transfer times.
    """

    name = "hetero_split"

    def __init__(
        self,
        rdv_threshold: Optional[int] = None,
        max_rails: Optional[int] = None,
        use_idle_prediction: bool = True,
    ) -> None:
        super().__init__(rdv_threshold=rdv_threshold)
        if max_rails is not None and max_rails < 1:
            raise ConfigurationError(f"bad max_rails: {max_rails}")
        self.max_rails = max_rails
        self.use_idle_prediction = use_idle_prediction
        # (source predictor, blinded wrapper) — rebuilt only when the
        # engine's predictor is swapped (e.g. Cluster.resample), so the
        # blinded predictor keeps its split-decision cache across calls.
        self._blind_cache: Optional[tuple] = None

    def _blind_predictor(self):
        """Occupancy-blind view of the engine's predictor (ablation A3);
        its plans reach the engine's hook stream like the source's."""
        source = self.predictor
        if self._blind_cache is None or self._blind_cache[0] is not source:

            class _Blind(CompletionPredictor):
                def busy_offset(self, nic: Nic) -> float:
                    return 0.0

            blind = _Blind(source.estimators, hooks=source.hooks, node=source.node)
            self._blind_cache = (source, blind)
        return self._blind_cache[1]

    def plan_rdv_data(self, msg: Message) -> RailPlan:
        rails = self.rails_to(msg.dest, msg)
        calib = self.engine.calib
        if calib is not None:
            # Drift defense: the calibration controller walks the
            # fallback ladder and delegates back to hetero_plan while
            # the profiles are trusted (docs/calibration.md).
            return calib.plan_rdv_data(self, msg, rails)
        return self.hetero_plan(msg, rails)

    def hetero_plan(self, msg: Message, rails) -> RailPlan:
        """The paper's full-trust split (also the calibration ladder's
        FULL level): subset selection + dichotomy over sampled curves."""
        predictor = self.predictor
        if not self.use_idle_prediction:
            # Ablation: blind the planner to NIC occupancy.
            predictor = self._blind_predictor()
        return predictor.plan(
            rails, msg.size, TransferMode.RENDEZVOUS, max_rails=self.max_rails
        )
