#!/usr/bin/env python3
"""Observability tour: stats snapshots, timelines and CSV export.

Runs a mixed workload under the adaptive strategy, then shows the three
ways to look at what happened:

1. :func:`repro.core.cluster_report` — per-node counters and utilization;
2. :class:`repro.obs.Timeline` — recorded from the hook stream during
   the run; interval queries + ASCII Gantt;
3. CSV export of both the timeline and the message lifecycles, for
   plotting with your own tools.

Run:  python examples/trace_analysis.py
"""

import io

from repro.api import ClusterBuilder
from repro.core import cluster_report
from repro.obs import Timeline, explain, export_messages_csv, export_timeline_csv
from repro.util.units import KiB, MiB


def main() -> None:
    cluster = ClusterBuilder.paper_testbed(strategy="adaptive").build()
    timeline = Timeline.record(cluster.machines["node0"])
    a, b = cluster.session("node0"), cluster.session("node1")

    sizes = [1 * KiB, 1 * KiB, 32 * KiB, 2 * MiB]
    messages = []
    for i, size in enumerate(sizes):
        b.irecv(tag=i)
        messages.append(a.isend("node1", size, tag=i))
    cluster.run()

    print("=== cluster report " + "=" * 40)
    print(cluster_report(cluster))
    print()

    print("=== sender timeline " + "=" * 39)
    print(timeline.to_ascii(width=60))
    print()
    mx, elan = (n.name for n in cluster.machines["node0"].nics)
    print(f"rail overlap (both transmitting): "
          f"{timeline.overlap(f'nic:{mx}', f'nic:{elan}'):.1f} us")
    print(f"peak lane parallelism: {timeline.max_parallelism()}")
    print()

    print("=== explain: where did the 2 MiB message's time go " + "=" * 8)
    print(explain(messages[-1]))
    print()

    print("=== CSV export " + "=" * 44)
    tl_buf, msg_buf = io.StringIO(), io.StringIO()
    n_tl = export_timeline_csv(timeline, tl_buf)
    n_msg = export_messages_csv(messages, msg_buf)
    print(f"timeline rows: {n_tl}; message rows: {n_msg}")
    print("first message rows:")
    for line in msg_buf.getvalue().splitlines()[:3]:
        print("  " + line)


if __name__ == "__main__":
    main()
