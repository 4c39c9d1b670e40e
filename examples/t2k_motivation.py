#!/usr/bin/env python3
"""The paper's opening motivation: a T2K-style node, 16 cores × 4 rails.

The introduction cites the T2K Open Supercomputer — 16-core nodes on a
4-link InfiniBand network — as the architecture demanding a multirail-
aware communication engine.  This example builds exactly that shape:
two 16-core nodes joined by four InfiniBand rails, and shows

1. bandwidth scaling as the strategy is allowed 1 → 4 rails
   (``max_rails``), next to the theoretical aggregate;
2. the multicore eager path putting four cores to work on one
   medium message (one PIO copy per rail).

Run:  python examples/t2k_motivation.py
"""

from repro.api import ClusterBuilder
from repro.bench.runners import measure_oneway
from repro.core.sampling import ProfileStore
from repro.core.strategies import HeteroSplitStrategy, MulticoreSplitStrategy
from repro.hardware import CpuTopology
from repro.networks import rail_profile
from repro.obs import Timeline
from repro.util.units import KiB, MiB, bytes_per_us_to_mbps

N_RAILS = 4


def build_t2k(strategy, profiles):
    builder = ClusterBuilder(strategy=strategy)
    topo = CpuTopology(sockets=4, cores_per_socket=4)  # 16 cores
    builder.add_node("node0", topology=topo)
    builder.add_node("node1", topology=topo)
    for _ in range(N_RAILS):
        builder.add_rail("infiniband", "node0", "node1")
    return builder.sampling(profiles=profiles).build()


def main() -> None:
    profiles = ProfileStore.sample_rails([rail_profile("infiniband")])
    link_bw = bytes_per_us_to_mbps(rail_profile("infiniband").dma_rate)

    print(f"two 16-core nodes, {N_RAILS} InfiniBand rails "
          f"({link_bw:.0f} MB/s per link)")
    print()
    print("1) 8 MiB bandwidth vs rails allowed to the strategy:")
    size = 8 * MiB
    for rails in range(1, N_RAILS + 1):
        cluster = build_t2k(
            HeteroSplitStrategy(rdv_threshold=32 * KiB, max_rails=rails), profiles
        )
        msg = measure_oneway(cluster, size)
        bw = bytes_per_us_to_mbps(size / msg.latency)
        print(
            f"   {rails} rail(s): {bw:7.1f} MB/s"
            f"   ({bw / (rails * link_bw) * 100:5.1f}% of {rails}-link aggregate)"
        )

    print()
    print("2) one 96 KiB eager message, PIO copies offloaded to 4 cores:")
    cluster = build_t2k(
        MulticoreSplitStrategy(rdv_threshold=256 * KiB), profiles
    )
    tl = Timeline.record(cluster.machines["node0"])
    msg = measure_oneway(cluster, 96 * KiB)
    print(f"   chunks: {msg.chunk_sizes}")
    print(f"   latency: {msg.latency:.1f} us "
          f"(offloads: {cluster.engine('node0').pioman.offloads})")
    busy_cores = [l for l in tl.lanes if l.startswith("core") and tl.intervals(l)]
    print(f"   cores that copied in parallel: {busy_cores}")
    print()
    print("the bottleneck the paper's SI describes — many cores behind one")
    print("NIC — disappears once the engine drives all four rails at once")


if __name__ == "__main__":
    main()
