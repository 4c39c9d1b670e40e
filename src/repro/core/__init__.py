"""NewMadeleine: the multirail communication engine (the paper's contribution).

Layered exactly as the paper's Fig. 5:

* **application layer** — :class:`~repro.core.engine.NmadEngine` exposes
  ``isend``/``post_recv``; the application enqueues packets and returns to
  computing;
* **optimizer/scheduler layer** — :class:`~repro.core.scheduler.OptimizerScheduler`
  holds the waiting-pack lists and invokes the pluggable
  :class:`~repro.core.strategies.Strategy` at the paper's three moments:
  when a NIC becomes idle, when a rendezvous request arrives, and just
  before an eager emission (§III-B);
* **transfer layer** — the NIC pipelines of :mod:`repro.networks`, driven
  through :mod:`repro.pioman`.

Supporting subsystems: :mod:`~repro.core.sampling` (measure each NIC at
powers of two), :mod:`~repro.core.estimator` (log-indexed linear
interpolation), :mod:`~repro.core.prediction` (NIC idle prediction and
rail selection, Fig. 2), :mod:`~repro.core.split` (dichotomy split-ratio
search, Fig. 1c).
"""

from repro.core.packets import Message, MessageStatus, TransferMode
from repro.core.estimator import NicEstimator, SampleTable
from repro.core.sampling import NetworkSampler, ProfileStore
from repro.core.prediction import CompletionPredictor, RailPlan
from repro.core.split import dichotomy_split, waterfill_split, SplitResult
from repro.core.engine import NmadEngine
from repro.core.scheduler import OptimizerScheduler
from repro.core.stats import EngineStats, cluster_report, engine_stats
from repro.core.strategies import (
    Strategy,
    SingleRailStrategy,
    RoundRobinStrategy,
    GreedyStrategy,
    AggregateStrategy,
    IsoSplitStrategy,
    StaticRatioStrategy,
    HeteroSplitStrategy,
    MulticoreSplitStrategy,
    AdaptiveStrategy,
    strategy_registry,
    make_strategy,
)

__all__ = [
    "Message",
    "MessageStatus",
    "TransferMode",
    "NicEstimator",
    "SampleTable",
    "NetworkSampler",
    "ProfileStore",
    "CompletionPredictor",
    "RailPlan",
    "dichotomy_split",
    "waterfill_split",
    "SplitResult",
    "NmadEngine",
    "OptimizerScheduler",
    "EngineStats",
    "engine_stats",
    "cluster_report",
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
]
