"""FIG4 — PIO transfer combinations (paper Fig. 4).

Micro-benchmark of the three ways to push two eager packets at one
destination over two rails:

* **(a) greedy, single core** — both PIO copies issued by core 0: the
  copies serialize, the NICs cannot work in parallel;
* **(b) aggregated** — one bigger packet on the fastest rail: a single
  copy, one NIC;
* **(c) offloaded** — the second copy signalled to an idle core through
  PIOMan/Marcel (3 µs): the copies — and both NICs — overlap.

Output per case: completion time of both packets, and the measured
overlap of the two rails' transmit windows (the Fig. 4 timeline rendered
as numbers).  Expected: ``overlap(a) == 0``, ``overlap(c) > 0``, and the
initialization time of (c) visible as the 3 µs offset before its second
copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench.runners import build_paper_cluster, default_profiles, measure_pair_completion
from repro.core.strategies import AggregateStrategy, GreedyStrategy, MulticoreSplitStrategy
from repro.obs import Timeline
from repro.util.units import KiB, format_time_us

#: per-packet payload for the micro-benchmark (medium eager size, where
#: §III-D says offloading pays off)
DEFAULT_SEGMENT: int = 8 * KiB

CASES = ("(a) greedy single core", "(b) aggregated", "(c) offloaded")


@dataclass
class Fig4Result:
    """Timings and overlaps for the three PIO combinations."""

    segment_size: int
    completion: Dict[str, float] = field(default_factory=dict)
    rail_overlap: Dict[str, float] = field(default_factory=dict)
    copy_overlap: Dict[str, float] = field(default_factory=dict)
    offload_dispatch_us: float = 0.0

    def render(self) -> str:
        lines = [
            f"FIG4: PIO transfer combinations (2 x {self.segment_size}B eager)",
            f"{'case':<26} {'completion':>12} {'rail overlap':>14} {'copy overlap':>14}",
        ]
        for case in CASES:
            lines.append(
                f"{case:<26} {format_time_us(self.completion[case]):>12} "
                f"{format_time_us(self.rail_overlap[case]):>14} "
                f"{format_time_us(self.copy_overlap[case]):>14}"
            )
        lines.append(
            f"offload dispatch latency (TO): {self.offload_dispatch_us:.2f} us"
        )
        return "\n".join(lines)


def run(segment_size: int = DEFAULT_SEGMENT) -> Fig4Result:
    """Fig. 4: serial vs aggregated vs offloaded PIO combinations."""
    profiles = default_profiles()
    result = Fig4Result(segment_size=segment_size)

    cases = {
        CASES[0]: GreedyStrategy(),
        CASES[1]: AggregateStrategy(),
        CASES[2]: MulticoreSplitStrategy(min_split=256),
    }
    for label, strategy in cases.items():
        cluster = build_paper_cluster(strategy, profiles=profiles)
        tl = Timeline.record(cluster.machines["node0"])
        if label == CASES[2]:
            # One message of 2*segment split by the strategy over cores.
            from repro.bench.runners import measure_oneway

            msg = measure_oneway(cluster, 2 * segment_size)
            completion = msg.latency
        else:
            completion, _, _ = measure_pair_completion(cluster, segment_size)
        result.completion[label] = completion
        mx, elan = (n.name for n in cluster.machines["node0"].nics)
        result.rail_overlap[label] = tl.overlap(f"nic:{mx}", f"nic:{elan}")
        # Copy overlap: any two distinct cores both copying.
        cores = [f"core{i}" for i in range(4)]
        result.copy_overlap[label] = max(
            tl.overlap(a, b) for i, a in enumerate(cores) for b in cores[i + 1:]
        )
    # Measure TO directly via a tasklet on a fresh rig.
    cluster = build_paper_cluster(cases[CASES[0]], profiles=profiles)
    machine = cluster.machines["node0"]
    from repro.threading import Tasklet

    marcel = cluster.engine("node0").marcel
    tasklet = Tasklet(body=lambda: None, name="probe")
    marcel.schedule_tasklet(tasklet, machine.cores[1], from_core=machine.cores[0])
    cluster.run()
    result.offload_dispatch_us = tasklet.dispatch_latency or 0.0
    return result
