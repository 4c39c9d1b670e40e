"""The paper's full §I vision in one plug-in.

"Depending on the state and capabilities of the underlying networks,
multiple packets with the same destination may be aggregated and handled
by a single core, or they may be sent in parallel by different cores over
separate NICs."

:class:`AdaptiveStrategy` combines the mechanisms of this repository:

* several queued small messages to one destination → **aggregate** them
  into one packet on the best-predicted rail (Fig. 3's winning move);
* a single medium eager message → **multicore split** it across rails
  with offloaded PIO copies when equation (1) predicts a win (Fig. 9);
* large messages → rendezvous with **hetero-split** and idle prediction
  (Figs. 1c/2/8).
"""

from __future__ import annotations

from repro.core.packets import Message, TransferMode
from repro.core.strategies.multicore import MulticoreSplitStrategy


class AdaptiveStrategy(MulticoreSplitStrategy):
    """Aggregation + multicore splitting + hetero rendezvous, state-driven.

    Parameters are :class:`MulticoreSplitStrategy`'s.  Counters
    ``aggregations`` and ``splits`` record the decisions.
    """

    name = "adaptive"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.aggregations = 0
        self.splits = 0

    def send_eager(self, msg: Message) -> bool:
        batch, total = self.eager_batch(msg)
        if len(batch) < 2:
            # A lone packet: parallel send over separate NICs from
            # different cores when the estimator says it pays off.
            super().send_eager(msg)
            if len(msg.rails_used) > 1:
                self.splits += 1
            return True
        # Several waiting packets, one destination: aggregate them on
        # the best-predicted rail and let a single core handle them
        # (paper §I, first branch).
        assert self.engine is not None
        engine = self.engine
        nic = self.fastest_rail(msg.dest, total, TransferMode.EAGER)
        engine.submit_aggregated_eager(batch, nic)
        self.aggregations += 1
        if engine.hooks.on_aggregate:
            engine.hooks.on_aggregate(engine.machine.name, batch, nic, engine.sim.now)
        return True
