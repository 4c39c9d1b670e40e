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

from typing import List, Optional

from repro.core.packets import Message, TransferMode
from repro.core.strategies.multicore import MulticoreSplitStrategy
from repro.networks.nic import Nic


class AdaptiveStrategy(MulticoreSplitStrategy):
    """Aggregation + multicore splitting + hetero rendezvous, state-driven.

    Parameters (beyond :class:`MulticoreSplitStrategy`'s)
    ------------------------------------------------------
    aggregation_limit:
        Largest aggregated packet to build; defaults to the rails'
        common bound.
    """

    name = "adaptive"
    needs_sampling = True

    def __init__(self, aggregation_limit: Optional[int] = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.aggregation_limit = aggregation_limit
        self.aggregations = 0
        self.splits = 0

    # ------------------------------------------------------------------ #

    def schedule_outlist(self) -> None:
        assert self.engine is not None
        engine = self.engine
        scheduler = engine.scheduler
        while (msg := scheduler.peek_ready()) is not None:
            if msg.mode is TransferMode.RENDEZVOUS:
                scheduler.pop_ready()
                engine.start_rendezvous(msg, control_nic=self.control_rail(msg))
                continue
            batch = self._gather_batch(msg)
            if len(batch) >= 2:
                # Several waiting packets, one destination: aggregate and
                # let a single core handle them (paper §I, first branch).
                for m in batch:
                    scheduler.remove(m)
                nic = self._aggregation_rail(msg.dest, sum(m.size for m in batch))
                engine.submit_aggregated_eager(batch, nic)
                self.aggregations += 1
                if engine.hooks.on_aggregate:
                    engine.hooks.on_aggregate(
                        engine.machine.name, batch, nic, engine.sim.now
                    )
            else:
                # A lone packet: parallel send over separate NICs from
                # different cores when the estimator says it pays off.
                scheduler.pop_ready()
                self._emit_eager(msg)
                if len(msg.rails_used) > 1:
                    self.splits += 1

    # ------------------------------------------------------------------ #

    def _limit_for(self, dest: str) -> int:
        rails = self.rails_to(dest)
        limit = min(
            min(n.profile.max_aggregation, n.profile.eager_limit) for n in rails
        )
        if self.aggregation_limit is not None:
            limit = min(limit, self.aggregation_limit)
        return limit

    def _gather_batch(self, head: Message) -> List[Message]:
        """Head plus queued same-destination eager messages that fit one
        aggregated packet (empty-headed batches never happen: the head is
        always included, so a returned batch of 1 means 'do not aggregate')."""
        assert self.engine is not None
        limit = self._limit_for(head.dest)
        if head.size > limit:
            return [head]
        batch = [head]
        total = head.size
        for m in self.engine.scheduler.iter_ready():
            if m is head or m.dest != head.dest:
                continue
            if m.mode is TransferMode.RENDEZVOUS:
                continue
            if total + m.size > limit:
                continue
            batch.append(m)
            total += m.size
        return batch

    def _aggregation_rail(self, dest: str, total: int) -> Nic:
        """Best-predicted rail for the aggregated packet, busy offsets in."""
        predictor = self.predictor
        return min(
            self.rails_to(dest),
            key=lambda n: predictor.predict(n, total, TransferMode.EAGER),
        )
