"""Single-rail and round-robin baselines.

``single_rail`` is the degenerate multirail usage most programming
environments default to (paper §I: "most programming environments simply
assign each communication flow to a single network link") and provides
the Fig. 8 "Myri-10G" / "Quadrics" reference series.

``round_robin`` alternates whole messages across rails — multiplexing
without splitting, the simplest way to use several links at once.
"""

from __future__ import annotations

from typing import Optional

from repro.core.packets import Message
from repro.core.prediction import RailPlan
from repro.core.strategies.base import Strategy
from repro.networks.nic import Nic


class SingleRailStrategy(Strategy):
    """Everything travels on one rail.

    Parameters
    ----------
    rail:
        Technology name (``"myri10g"``) or NIC name; ``None`` picks, on
        every send, the up rail with the highest ``profile.dma_rate``.
        A pinned rail that is down fails over to that choice.
    """

    name = "single_rail"

    def __init__(self, rail: Optional[str] = None, rdv_threshold: Optional[int] = None) -> None:
        super().__init__(rdv_threshold=rdv_threshold)
        self.rail = rail

    def _rail_for(self, msg: Message) -> Nic:
        rails = self.rails_to(msg.dest, msg)
        nic = self.pinned_rail(rails, msg)
        if nic is None:
            nic = max(rails, key=lambda n: n.profile.dma_rate)
        return nic

    def send_eager(self, msg: Message) -> bool:
        self.submit_whole_eager(msg, self._rail_for(msg))
        return True

    def plan_rdv_data(self, msg: Message) -> RailPlan:
        return RailPlan.over([self._rail_for(msg)], [msg.size])

    def control_rail(self, msg: Message) -> Nic:
        return self._rail_for(msg)


class RoundRobinStrategy(Strategy):
    """Whole messages alternate across rails, in NIC order."""

    name = "round_robin"

    def __init__(self, rdv_threshold: Optional[int] = None) -> None:
        super().__init__(rdv_threshold=rdv_threshold)
        self._next = 0

    def _take_rail(self, dest: str) -> Nic:
        rails = self.rails_to(dest)
        nic = rails[self._next % len(rails)]
        self._next += 1
        return nic

    def send_eager(self, msg: Message) -> bool:
        nic = self._take_rail(msg.dest)
        if msg.size <= nic.profile.eager_limit:
            self.submit_whole_eager(msg, nic)
        else:  # this rail cannot take it eagerly; rendezvous instead
            self.engine.start_rendezvous(msg, control_nic=self.control_rail(msg))
        return True

    def plan_rdv_data(self, msg: Message) -> RailPlan:
        return RailPlan.over([self._take_rail(msg.dest)], [msg.size])

    def control_rail(self, msg: Message) -> Nic:
        # Control packets ride the first rail; the rotation is reserved
        # for the payloads.
        return self.rails_to(msg.dest)[0]
