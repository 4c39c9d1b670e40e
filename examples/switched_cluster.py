#!/usr/bin/env python3
"""Shared switch vs dedicated rails: when does multirail really help?

Real multirail clusters (the T2K of the paper's introduction) run through
switches, where flows *share* destination ports.  This example builds a
four-node cluster twice:

* **switched** — every node hangs one InfiniBand NIC off one switch;
* **dual-rail switched** — every node hangs two NICs off two switches
  (the multirail upgrade path).

and drives an incast (three senders, one receiver).  The single fabric is
port-bound at the receiver; the dual-rail fabric lets hetero-split spread
each flow over both switches and halves the incast time.

Run:  python examples/switched_cluster.py
"""

from repro.api import ClusterBuilder
from repro.core.sampling import ProfileStore
from repro.networks import rail_profile
from repro.util.units import MiB, bytes_per_us_to_mbps

N_NODES = 4
SIZE = 2 * MiB


def build(n_switches: int, profiles) -> "Cluster":
    builder = ClusterBuilder(strategy="hetero_split")
    nodes = [f"node{i}" for i in range(N_NODES)]
    for node in nodes:
        builder.add_node(node)
    for _ in range(n_switches):
        builder.add_switch("infiniband", nodes)
    return builder.sampling(profiles=profiles).build()


def incast(cluster) -> float:
    """Three senders, one receiver; returns the time until all arrive."""
    receiver = cluster.session("node0")
    msgs = []
    for i in range(1, N_NODES):
        receiver.irecv(source=f"node{i}")
        msgs.append(cluster.session(f"node{i}").isend("node0", SIZE))
    cluster.run()
    return max(m.t_complete for m in msgs) - msgs[0].t_post


def main() -> None:
    profiles = ProfileStore.sample_rails([rail_profile("infiniband")])
    print(f"{N_NODES} nodes, {N_NODES - 1}-to-1 incast of {SIZE}B each")
    print()
    results = {}
    for n_switches in (1, 2):
        cluster = build(n_switches, profiles)
        elapsed = incast(cluster)
        results[n_switches] = elapsed
        total = (N_NODES - 1) * SIZE
        print(
            f"  {n_switches} switch fabric(s): {elapsed:8.1f} us "
            f"({bytes_per_us_to_mbps(total / elapsed):7.1f} MB/s into node0)"
        )
    print()
    print(
        f"adding the second fabric cut the incast x{results[1] / results[2]:.2f}: "
        "the receiver's port was the bottleneck,"
    )
    print("and hetero-split spread every flow over both fabrics automatically")


if __name__ == "__main__":
    main()
