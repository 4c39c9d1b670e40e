"""T1/T2 — the paper's in-text evaluation numbers, reproduced as tables.

The paper has no numbered tables; its §III-D and §IV prose reports exact
figures.  T1 and T2 regenerate those figures so EXPERIMENTS.md can place
paper-vs-measured side by side.

T1 (§IV-A, 4 MiB message):
    iso-split   — Myri chunk 2 MiB ≈ 1730 µs, Quadrics chunk 2 MiB ≈
                  2400 µs, fast rail idle ≈ 670 µs;
    hetero-split — Myri chunk 2437 KiB ≈ 1999 µs, Quadrics chunk
                  1757 KiB ≈ 2001 µs (chunk times equalized).

T2 (§III-D + §IV):
    offload cost 3 µs (6 µs with preemption); Fig. 8 plateaus
    1170/837/1670/1987 MB/s; Fig. 9 split crossover ≈ 4 KiB and
    up-to-30 % latency reduction at 64 KiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.runners import build_paper_cluster, default_profiles, measure_oneway
from repro.core.strategies import HeteroSplitStrategy, IsoSplitStrategy
from repro.obs import Timeline
from repro.util.units import KiB, MiB

#: paper reference values for T1 (µs / bytes)
PAPER_T1 = {
    "iso_myri_chunk_us": 1730.0,
    "iso_quad_chunk_us": 2400.0,
    "iso_idle_gap_us": 670.0,
    "hetero_myri_chunk_bytes": 2437 * KiB,
    "hetero_quad_chunk_bytes": 1757 * KiB,
    "hetero_myri_chunk_us": 1999.0,
    "hetero_quad_chunk_us": 2001.0,
}

#: paper reference values for T2
PAPER_T2 = {
    "offload_idle_us": 3.0,
    "offload_preempt_us": 6.0,
}


@dataclass
class ChunkReport:
    """Per-rail chunk outcome of one 4 MiB transfer."""

    rail: str
    chunk_bytes: int
    chunk_time_us: float


@dataclass
class T1Result:
    iso: List[ChunkReport] = field(default_factory=list)
    iso_idle_gap_us: float = 0.0
    hetero: List[ChunkReport] = field(default_factory=list)
    hetero_imbalance_us: float = 0.0

    def render(self) -> str:
        lines = ["T1: 4 MiB message, per-chunk outcomes (paper SIV-A)"]
        for name, chunks in (("iso-split", self.iso), ("hetero-split", self.hetero)):
            for c in chunks:
                lines.append(
                    f"  {name:<13} {c.rail:<10} {c.chunk_bytes / KiB:8.0f} KiB "
                    f"in {c.chunk_time_us:8.1f} us"
                )
        lines.append(f"  iso idle gap on fast rail: {self.iso_idle_gap_us:.1f} us")
        lines.append(f"  hetero chunk-time imbalance: {self.hetero_imbalance_us:.1f} us")
        return "\n".join(lines)


def _chunk_times(cluster, strategy_name: str) -> Tuple[List[ChunkReport], Timeline]:
    machine = cluster.machines["node0"]
    tl = Timeline.record(machine)
    msg = measure_oneway(cluster, 4 * MiB)
    reports = []
    for rail_qname, size in zip(msg.rails_used, msg.chunk_sizes):
        rail = rail_qname.split(".")[1]
        nic = machine.nic_by_name(rail)
        # Chunk wire time = the rail's data transmit window + delivery and
        # detection; approximate with submit->last transmit end + fixed
        # tail from the profile (wire latency + detect).  The lane holds
        # only the data chunk: the zero-length control post is dropped.
        start, end = tl.span(f"nic:{rail}")
        tail = nic.profile.wire_latency + nic.profile.poll_detect
        reports.append(
            ChunkReport(rail=rail, chunk_bytes=size, chunk_time_us=end - start + tail)
        )
    return reports, tl


def run_t1() -> T1Result:
    """T1: the SIV-A 4 MiB per-chunk outcome table."""
    profiles = default_profiles()
    result = T1Result()

    iso_cluster = build_paper_cluster(
        IsoSplitStrategy(rdv_threshold=32 * KiB), profiles=profiles
    )
    result.iso, tl = _chunk_times(iso_cluster, "iso")
    machine = iso_cluster.machines["node0"]
    mx, elan = (n.name for n in machine.nics)
    result.iso_idle_gap_us = tl.idle_gap(f"nic:{mx}", f"nic:{elan}")

    hetero_cluster = build_paper_cluster(
        HeteroSplitStrategy(rdv_threshold=32 * KiB), profiles=profiles
    )
    result.hetero, _ = _chunk_times(hetero_cluster, "hetero")
    times = [c.chunk_time_us for c in result.hetero]
    result.hetero_imbalance_us = max(times) - min(times)
    return result


@dataclass
class T2Result:
    offload_idle_us: float = 0.0
    offload_preempt_us: float = 0.0
    plateaus_mbps: Dict[str, float] = field(default_factory=dict)
    fig9_crossover_bytes: int = 0
    fig9_best_reduction_pct: float = 0.0

    def render(self) -> str:
        lines = [
            "T2: micro-measurements and derived figures (paper SIII-D / SIV)",
            f"  offload cost, idle core:      {self.offload_idle_us:.2f} us (paper 3)",
            f"  offload cost, preemption:     {self.offload_preempt_us:.2f} us (paper 6)",
        ]
        for label, bw in self.plateaus_mbps.items():
            lines.append(f"  plateau {label:<28} {bw:8.1f} MB/s")
        lines.append(
            f"  fig9 split crossover:         {self.fig9_crossover_bytes} B (paper ~4K)"
        )
        lines.append(
            f"  fig9 best latency reduction:  {self.fig9_best_reduction_pct:.1f}% "
            "(paper: up to ~30%)"
        )
        return "\n".join(lines)


def run_t2() -> T2Result:
    """T2: offload micro-costs, plateaus and Fig. 9 derived figures."""
    from repro.bench.experiments import fig8, fig9
    from repro.threading import Tasklet

    result = T2Result()
    profiles = default_profiles()

    # Offload costs, measured through Marcel exactly as §III-D reports them.
    cluster = build_paper_cluster(
        HeteroSplitStrategy(rdv_threshold=32 * KiB), profiles=profiles
    )
    machine = cluster.machines["node0"]
    marcel = cluster.engine("node0").marcel
    idle_tasklet = Tasklet(body=lambda: None, name="idle-probe")
    marcel.schedule_tasklet(idle_tasklet, machine.cores[1], from_core=machine.cores[0])
    cluster.run()
    result.offload_idle_us = idle_tasklet.dispatch_latency or 0.0

    marcel.spawn_compute(machine.cores[2], work_us=None, preemptable=True)
    cluster.sim.schedule(1.0, lambda: None)
    cluster.run()
    preempt_tasklet = Tasklet(body=lambda: None, name="preempt-probe")
    marcel.schedule_tasklet(preempt_tasklet, machine.cores[2], from_core=machine.cores[0])
    cluster.sim.run(until=cluster.sim.now + 50.0)
    result.offload_preempt_us = preempt_tasklet.dispatch_latency or 0.0

    # Plateaus from the FIG8 sweep's largest size.
    sweep8 = fig8.run(sizes=[8 * MiB])
    for s in sweep8.series:
        result.plateaus_mbps[s.label] = s.values[0]

    # Crossover and best reduction from the FIG9 sweep.
    sweep9 = fig9.run()
    myri = sweep9[fig9.MYRI].values
    est = sweep9[fig9.ESTIMATE].values
    crossover = 0
    for size, m, e in zip(sweep9.x_sizes, myri, est):
        if e < m:
            crossover = size
            break
    result.fig9_crossover_bytes = crossover
    reductions = [
        (1.0 - e / m) * 100.0 for m, e in zip(myri, est)
    ]
    result.fig9_best_reduction_pct = max(reductions)
    return result
