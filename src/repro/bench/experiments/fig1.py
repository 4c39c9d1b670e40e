"""FIG1 — the paper's schematic (Fig. 1), regenerated from real runs.

Fig. 1 is a conceptual drawing of three ways to place four messages on
two NICs: (a) each message whole on one NIC, (b) equal-size chunks,
(c) equal-*time* chunks.  This module runs the corresponding strategies
on the actual engine and renders the two NIC lanes of the sender as
ASCII Gantt charts — the schematic, measured.

Workload: four 2 MiB rendezvous messages posted back-to-back.
Expected shape: (a) leaves the rails unevenly loaded; (b) finishes the
fast rail early on every message (idle stair-steps); (c) both lanes end
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench.runners import build_paper_cluster, default_profiles
from repro.bench.workloads import run_stream, uniform_stream
from repro.core.strategies import GreedyStrategy, HeteroSplitStrategy, IsoSplitStrategy
from repro.obs import Timeline
from repro.util.units import KiB, MiB

CASES = (
    "(a) one NIC per message",
    "(b) equal-size chunks",
    "(c) equal-time chunks",
)

#: four messages, as in the paper's drawing
MESSAGE_COUNT = 4
MESSAGE_SIZE = 2 * MiB


@dataclass
class Fig1Result:
    """Timelines and completion instants for the three placements."""

    charts: Dict[str, str] = field(default_factory=dict)
    completion: Dict[str, float] = field(default_factory=dict)
    rail_end_gap: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"FIG1: message placement on two NICs "
            f"({MESSAGE_COUNT} x {MESSAGE_SIZE}B, sender's rails)",
        ]
        for case in CASES:
            lines.append("")
            lines.append(
                f"{case}   all done at {self.completion[case]:.0f} us, "
                f"rails end {self.rail_end_gap[case]:.0f} us apart"
            )
            lines.append(self.charts[case])
        lines.append("")
        lines.append(
            "(c) ends both rails together and finishes first - Fig. 1's point"
        )
        return "\n".join(lines)


def run() -> Fig1Result:
    """Fig. 1: the three placements run on the engine, lanes rendered."""
    profiles = default_profiles()
    result = Fig1Result()
    strategies = {
        CASES[0]: GreedyStrategy(rdv_threshold=32 * KiB),
        CASES[1]: IsoSplitStrategy(rdv_threshold=32 * KiB),
        CASES[2]: HeteroSplitStrategy(rdv_threshold=32 * KiB),
    }
    for case, strategy in strategies.items():
        cluster = build_paper_cluster(strategy, profiles=profiles)
        machine = cluster.machines["node0"]
        full = Timeline.record(machine)
        stream = run_stream(
            cluster, uniform_stream(MESSAGE_COUNT, MESSAGE_SIZE)
        )
        lanes = Timeline()
        for nic in machine.nics:
            lane = f"nic:{nic.name}"
            for iv in full.intervals(lane):
                lanes.add(lane, iv)
        result.charts[case] = lanes.to_ascii(width=56)
        result.completion[case] = stream.makespan_us
        mx, elan = (f"nic:{n.name}" for n in machine.nics)
        result.rail_end_gap[case] = max(
            lanes.idle_gap(mx, elan), lanes.idle_gap(elan, mx)
        )
    return result
