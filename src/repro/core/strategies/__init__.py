"""Optimization strategies — the NewMadeleine plug-ins (paper §III-B).

"The features proposed in this article are mainly organized around the
implementation of a new NewMadeleine optimization strategy which actually
is a plug-in called to gather the data requests and interrogated by the
lower layer in order to know what to do at the appropriate time."

The strategy is invoked at three moments:

* when the scheduler activates on freshly enqueued packets, and when a
  NIC becomes idle (:meth:`Strategy.schedule_outlist`, the one out-list
  loop, written once in the base class);
* just before managing the emission of an eager packet
  (:meth:`Strategy.send_eager`, called by that loop);
* when a rendezvous acknowledgement allows the data transfer
  (:meth:`Strategy.plan_rdv_data`).

Implementations, from the paper's baselines to its contribution:

========================  ====================================================
``single_rail``           everything on one fixed rail (Fig. 8 "Myri-10G" /
                          "Quadrics" series)
``round_robin``           rails alternate per message, no splitting
``greedy``                "when a NIC becomes idle, it looks after the next
                          communication" — Fig. 3's dynamically balanced
``aggregate``             aggregate eager packets onto the fastest available
                          rail (Fig. 3's winner; ref [4])
``iso_split``             equal-size chunks over every rail (Fig. 8 Iso-split)
``static_ratio``          OpenMPI-style fixed bandwidth-ratio split (§II-A)
``hetero_split``          sampling + idle-prediction + dichotomy split —
                          THE paper's strategy (Fig. 8 Hetero-split)
``multicore_split``       hetero_split + eager chunks offloaded to idle cores
                          through PIOMan/Marcel (Figs. 7/9, §III-D)
``adaptive``              the full §I vision: aggregate queued same-dest
                          packets OR split lone ones across cores, by state
========================  ====================================================
"""

from repro.core.strategies.base import Strategy
from repro.core.strategies.single_rail import SingleRailStrategy, RoundRobinStrategy
from repro.core.strategies.greedy import GreedyStrategy
from repro.core.strategies.aggregate import AggregateStrategy
from repro.core.strategies.splitting import (
    IsoSplitStrategy,
    StaticRatioStrategy,
    HeteroSplitStrategy,
    striped_transfer_time,
)
from repro.core.strategies.multicore import MulticoreSplitStrategy
from repro.core.strategies.adaptive import AdaptiveStrategy

from typing import Dict, Type

from repro.util.errors import ConfigurationError

strategy_registry: Dict[str, Type[Strategy]] = {
    "single_rail": SingleRailStrategy,
    "round_robin": RoundRobinStrategy,
    "greedy": GreedyStrategy,
    "aggregate": AggregateStrategy,
    "iso_split": IsoSplitStrategy,
    "static_ratio": StaticRatioStrategy,
    "hetero_split": HeteroSplitStrategy,
    "multicore_split": MulticoreSplitStrategy,
    "adaptive": AdaptiveStrategy,
}


def make_strategy(name: str, **kwargs) -> Strategy:
    """Build a strategy by registry name (case ignored); an unknown name
    raises :class:`ConfigurationError` listing the known ones."""
    try:
        cls = strategy_registry[name.lower()]
    except KeyError:
        known = ", ".join(sorted(strategy_registry))
        raise ConfigurationError(
            f"unknown strategy {name!r}; known: {known}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "Strategy",
    "SingleRailStrategy",
    "RoundRobinStrategy",
    "GreedyStrategy",
    "AggregateStrategy",
    "IsoSplitStrategy",
    "StaticRatioStrategy",
    "HeteroSplitStrategy",
    "MulticoreSplitStrategy",
    "AdaptiveStrategy",
    "strategy_registry",
    "make_strategy",
    "striped_transfer_time",
]
