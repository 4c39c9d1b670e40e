"""Greedy dynamic balancing — the Fig. 3 baseline the paper improves on.

Paper §II-C: "a basic greedy balancing of the messages — when a NIC
becomes idle, it looks after the next communication".  Each message goes
whole onto the first idle rail (fastest first); when every rail is busy
the message waits in the out-list and the next NIC-idle event drains it.

No aggregation and no splitting: with several small messages this
maximizes the number of CPU-consuming PIO transfers issued from the
single application core — which is exactly why Fig. 3 shows it losing to
aggregation on the fastest rail.
"""

from __future__ import annotations

from typing import List

from repro.core.packets import Message
from repro.core.strategies.base import Strategy
from repro.networks.nic import Nic


class GreedyStrategy(Strategy):
    """One whole message per idle NIC, fastest idle NIC first."""

    name = "greedy"

    def _idle_rails(self, dest: str) -> List[Nic]:
        rails = [n for n in self.rails_to(dest) if n.is_idle]
        rails.sort(key=lambda n: n.profile.eager_oneway(1), reverse=False)
        # Prefer the highest-throughput idle rail for the next packet.
        rails.sort(key=lambda n: n.profile.pio_rate, reverse=True)
        return rails

    def send_eager(self, msg: Message) -> bool:
        idle = [
            n for n in self._idle_rails(msg.dest) if msg.size <= n.profile.eager_limit
        ]
        if not idle:
            return False  # every capable rail busy; wait for a NIC-idle event
        self.submit_whole_eager(msg, idle[0])
        return True
