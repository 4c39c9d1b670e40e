#!/usr/bin/env python3
"""Writing a custom strategy plug-in.

NewMadeleine's optimizer invokes a strategy at three moments (paper
§III-B); subclassing :class:`repro.core.Strategy` lets you experiment
with your own policies.  This example implements *latency-biased
dispatch*: tiny messages ride the lowest-latency rail, everything else
the highest-bandwidth rail — a policy an application with mixed
control/data traffic might want — and races it against the built-ins on
exactly such a mixed workload.

Run:  python examples/custom_strategy.py
"""

from repro.api import ClusterBuilder
from repro.core import RailPlan
from repro.core.strategies import Strategy
from repro.util.units import KiB


class LatencyBiasedStrategy(Strategy):
    """Small packets on the low-latency rail, bulk on the fat rail."""

    name = "latency_biased"

    def __init__(self, small_cutoff: int = 1 * KiB, **kwargs) -> None:
        super().__init__(**kwargs)
        self.small_cutoff = small_cutoff

    def _rail_for(self, msg):
        rails = self.rails_to(msg.dest)
        est = {n: self.predictor.estimator_for(n) for n in rails}
        if msg.size <= self.small_cutoff:
            # lowest sampled zero-byte latency
            return min(rails, key=lambda n: est[n].eager(4))
        return max(rails, key=lambda n: est[n].plateau_bandwidth())

    def send_eager(self, msg):
        self.submit_whole_eager(msg, self._rail_for(msg))
        return True

    def control_rail(self, msg):
        return self._rail_for(msg)

    def plan_rdv_data(self, msg):
        return RailPlan.over([self._rail_for(msg)], [msg.size])


def run_workload(strategy_spec) -> float:
    """A mixed workload: alternating 64 B control and 256 KiB data."""
    cluster = ClusterBuilder.paper_testbed(strategy=strategy_spec).build()
    a, b = cluster.session("node0"), cluster.session("node1")
    total = 0.0
    for i in range(6):
        size = 64 if i % 2 == 0 else 256 * KiB
        b.irecv(tag=i)
        msg = a.isend("node1", size, tag=i)
        cluster.run()
        total += msg.latency
    return total


def main() -> None:
    print("mixed control/data workload, summed one-way latency:")
    for label, spec in (
        ("single_rail (fastest)", "single_rail"),
        ("hetero_split (paper)", "hetero_split"),
        ("latency_biased (custom)", LatencyBiasedStrategy()),
    ):
        print(f"  {label:<26} {run_workload(spec):9.1f} us")
    print()
    print("the custom plug-in needed ~30 lines: override send_eager,")
    print("control_rail and plan_rdv_data, and the engine does the rest")


if __name__ == "__main__":
    main()
