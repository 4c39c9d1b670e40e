"""Aggregation on the fastest rail — Fig. 3's winning eager policy.

Paper §II-C: "it is more efficient to aggregate the messages and to send
them over the fastest available network instead of using the entire set
of network resources" (ref [4]).  Waiting eager packets to the same
destination are packed into one wire packet (gather/scatter hardware
permitting, at a small per-segment cost) and sent over one rail.
"""

from __future__ import annotations

from typing import Optional

from repro.core.packets import Message
from repro.core.prediction import RailPlan
from repro.core.strategies.base import Strategy
from repro.networks.nic import Nic


class AggregateStrategy(Strategy):
    """Aggregate same-destination eager packets onto one rail.

    Parameters
    ----------
    rail:
        Pin the rail by technology or NIC name (the Fig. 3 "aggregated
        over Myri-10G"/"over Quadrics" series).  ``None`` picks the
        fastest *available* rail per batch, preferring idle rails; a
        pinned rail that is down fails over to that choice.
    """

    name = "aggregate"

    def __init__(self, rail: Optional[str] = None, rdv_threshold: Optional[int] = None) -> None:
        super().__init__(rdv_threshold=rdv_threshold)
        self.rail = rail

    # ------------------------------------------------------------------ #

    def _pick_rail(self, msg: Message, size: int) -> Nic:
        rails = self.rails_to(msg.dest)
        nic = self.pinned_rail(rails, msg)
        if nic is not None:
            return nic
        idle = [n for n in rails if n.is_idle]
        pool = idle or rails
        return min(
            pool,
            key=lambda n: (n.busy_until - n.sim.now) + n.profile.eager_oneway(size),
        )

    def send_eager(self, msg: Message) -> bool:
        # The rail is picked *after* the batch, by the size that travels.
        batch, total = self.eager_batch(msg)
        nic = self._pick_rail(msg, total)
        if self.rail is None and not nic.is_idle:
            return False  # rail busy; retry on the NIC-idle event
        self.engine.submit_aggregated_eager(batch, nic)
        return True

    def plan_rdv_data(self, msg: Message) -> RailPlan:
        return RailPlan.over([self._pick_rail(msg, msg.size)], [msg.size])
