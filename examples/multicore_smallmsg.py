#!/usr/bin/env python3
"""Multicore eager sends: Figs. 4/7/9 in one script.

Part 1 regenerates Fig. 9: the equation-(1) estimation of splitting small
messages across rails with the PIO copies offloaded to idle cores
(TO = 3 µs), next to the measured single-rail latencies.

Part 2 goes beyond the paper: it *runs* the multicore mechanism the paper
could only estimate, and renders the sender's cores and NICs as an ASCII
Gantt chart — you can see the second PIO copy running on another core in
parallel (Fig. 4c / Fig. 7).

Run:  python examples/multicore_smallmsg.py
"""

from repro.bench.experiments import fig9
from repro.bench.runners import build_paper_cluster, default_profiles, measure_oneway
from repro.core.strategies import MulticoreSplitStrategy
from repro.obs import Timeline
from repro.util.units import KiB


def main() -> None:
    print(fig9.run().render())
    print()

    # ---- part 2: actually run the offloaded send ----------------------- #
    size = 32 * KiB
    cluster = build_paper_cluster(
        MulticoreSplitStrategy(rdv_threshold=128 * KiB),
        profiles=default_profiles(),
    )
    machine = cluster.machines["node0"]
    timeline = Timeline.record(machine)
    msg = measure_oneway(cluster, size)
    print(f"measured multicore eager send of {size}B: {msg.latency:.2f} us")
    print(f"  chunks: {msg.chunk_sizes} over {msg.rails_used}")
    print(f"  offloads signalled: {cluster.engine('node0').pioman.offloads}")
    print()
    print("sender-side timeline (cores do the PIO copies, NICs transmit):")
    print(timeline.to_ascii(width=64))
    print()
    print("core0 posts chunk 1 and copies it; core1 wakes 3 us later and")
    print("copies chunk 2 in parallel — the Fig. 7 sequence.")


if __name__ == "__main__":
    main()
