#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from live experiment runs.

Run:  python benchmarks/generate_experiments_md.py

``tests/paper/test_golden.py`` checks that :func:`render` reproduces the
committed file byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.bench.experiments import (
    experiment_registry,
    fig1,
    fig3,
    fig4,
    fig8,
    fig9,
)
from repro.util.units import KiB, MiB, format_size

OUT = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def code(text: str) -> str:
    return f"```\n{text}\n```"


def _run_registered(key: str) -> Any:
    return experiment_registry[key]()


def render(run: Callable[[str], Any] = _run_registered) -> str:
    """The text of EXPERIMENTS.md; ``run(key)`` returns the result of a
    registered experiment (the tests pass a cached runner)."""
    sections = []
    sections.append(
        "# EXPERIMENTS — paper vs measured\n\n"
        "Every figure and in-text number of the paper's evaluation (§IV),\n"
        "regenerated by this repository's simulator.  Absolute numbers are\n"
        "calibrated-model outputs; the claims being validated are the *shapes*\n"
        "— who wins, by what factor, where crossovers fall (DESIGN.md §6).\n\n"
        "Regenerate this file:  `python benchmarks/generate_experiments_md.py`\n"
        "Run the assertions:    `pytest tests/paper/`\n"
    )

    # ------------------------------------------------------------- FIG1
    r1 = run("FIG1")
    sections.append(
        "## FIG1 — the placement schematic, measured (paper Fig. 1)\n\n"
        "| claim (paper) | measured |\n"
        "|---|---|\n"
        "| equal-time chunks minimize the whole transfer (Fig. 1c) | "
        f"(c) {r1.completion[fig1.CASES[2]]:.0f} µs vs "
        f"(a) {r1.completion[fig1.CASES[0]]:.0f} µs / "
        f"(b) {r1.completion[fig1.CASES[1]]:.0f} µs |\n"
        "| equal-time chunks end both rails together | rails end "
        f"{r1.rail_end_gap[fig1.CASES[2]]:.0f} µs apart under (c), "
        f"{r1.rail_end_gap[fig1.CASES[1]]:.0f} µs under (b) |\n\n"
        + code(r1.render())
    )

    # ------------------------------------------------------------- FIG3
    r3 = run("FIG3")
    col = r3.column(64)
    worst = col[fig3.BALANCED] / min(col[fig3.AGG_MYRI], col[fig3.AGG_QUAD])
    col16k = r3.column(16 * KiB)
    sections.append(
        "## FIG3 — greedy balancing vs aggregation (paper Fig. 3)\n\n"
        "Two eager segments, same destination, single application core.\n\n"
        "| claim (paper) | measured |\n"
        "|---|---|\n"
        "| dynamically balancing eager packets over both rails is slower "
        "than aggregating on one rail | balanced is slower at every size "
        f"up to 8 KiB (×{worst:.2f} at 64 B) |\n"
        "| curves approach at the right edge of the 4 B–16 KiB sweep | at 16 KiB "
        f"balanced {col16k[fig3.BALANCED]:.1f} µs vs best aggregation "
        f"{min(col16k[fig3.AGG_MYRI], col16k[fig3.AGG_QUAD]):.1f} µs |\n\n"
        + code(r3.render())
    )

    # ------------------------------------------------------------- FIG4
    r4 = run("FIG4")
    sections.append(
        "## FIG4 — PIO transfer combinations (paper Fig. 4)\n\n"
        "| claim (paper) | measured |\n"
        "|---|---|\n"
        "| single-core PIO transfers serialize; NICs cannot run in parallel | "
        f"rail overlap {r4.rail_overlap[fig4.CASES[0]]:.2f} µs in case (a) |\n"
        "| offloading the copy to another core overlaps the rails | rail overlap "
        f"{r4.rail_overlap[fig4.CASES[2]]:.2f} µs, copy overlap "
        f"{r4.copy_overlap[fig4.CASES[2]]:.2f} µs in case (c) |\n"
        "| offload initialization cost TO = 3 µs | measured "
        f"{r4.offload_dispatch_us:.2f} µs |\n\n"
        + code(r4.render())
    )

    # ------------------------------------------------------------- FIG8
    r8 = run("FIG8")
    plateau = r8.column(8 * MiB)
    rows = "\n".join(
        f"| {label} plateau | {fig8.PAPER_PLATEAUS[label]:.0f} MB/s | "
        f"{plateau[label]:.1f} MB/s |"
        for label in r8.labels
    )
    sections.append(
        "## FIG8 — message splitting bandwidth (paper Fig. 8)\n\n"
        "| series | paper | measured |\n"
        "|---|---|---|\n"
        f"{rows}\n\n"
        "Orderings hold at every size: hetero > iso > Myri > Quadrics; "
        "hetero reaches ≥95 % of the ~2 GB/s theoretical aggregate.\n\n"
        + code(r8.render(precision=1))
    )

    # ------------------------------------------------------------- FIG9
    r9 = run("FIG9")
    col64 = r9.column(64 * KiB)
    reduction = (1 - col64[fig9.ESTIMATE] / col64[fig9.MYRI]) * 100
    crossover = next(
        size
        for size, m, e in zip(
            r9.x_sizes, r9[fig9.MYRI].values, r9[fig9.ESTIMATE].values
        )
        if e < m
    )
    sections.append(
        "## FIG9 — splitting small messages, eq. (1) estimation (paper Fig. 9)\n\n"
        "| claim (paper) | measured |\n"
        "|---|---|\n"
        "| splitting messages < 4 KiB is costly (tasklet/offload cost) | "
        f"estimation loses below {format_size(crossover)} |\n"
        "| parallel chunks reduce latency by up to ~30 % (64 KiB) | "
        f"{reduction:.1f} % at 64 KiB |\n\n"
        + code(r9.render())
    )

    # --------------------------------------------------------------- T1
    t1 = run("T1")
    iso_m = next(c for c in t1.iso if "myri" in c.rail)
    iso_q = next(c for c in t1.iso if "quadrics" in c.rail)
    het_m = next(c for c in t1.hetero if "myri" in c.rail)
    het_q = next(c for c in t1.hetero if "quadrics" in c.rail)
    sections.append(
        "## T1 — §IV-A in-text 4 MiB chunk table\n\n"
        "| quantity | paper | measured |\n"
        "|---|---|---|\n"
        f"| iso: Myri 2 MiB chunk | ~1730 µs | {iso_m.chunk_time_us:.1f} µs |\n"
        f"| iso: Quadrics 2 MiB chunk | ~2400 µs | {iso_q.chunk_time_us:.1f} µs |\n"
        f"| iso: fast-rail idle gap | ~670 µs | {t1.iso_idle_gap_us:.1f} µs |\n"
        f"| hetero: Myri chunk | 2437 KiB / 1999 µs | "
        f"{het_m.chunk_bytes / KiB:.0f} KiB / {het_m.chunk_time_us:.1f} µs |\n"
        f"| hetero: Quadrics chunk | 1757 KiB / 2001 µs | "
        f"{het_q.chunk_bytes / KiB:.0f} KiB / {het_q.chunk_time_us:.1f} µs |\n"
        f"| hetero: chunk-time imbalance | ~2 µs | {t1.hetero_imbalance_us:.1f} µs |\n\n"
        + code(t1.render())
    )

    # --------------------------------------------------------------- T2
    t2 = run("T2")
    sections.append(
        "## T2 — §III-D micro-costs and derived figures\n\n"
        "| quantity | paper | measured |\n"
        "|---|---|---|\n"
        f"| offload cost (idle core) | 3 µs | {t2.offload_idle_us:.2f} µs |\n"
        f"| offload cost (preemption) | 6 µs | {t2.offload_preempt_us:.2f} µs |\n"
        f"| Fig. 9 split crossover | ~4 KiB | "
        f"{format_size(t2.fig9_crossover_bytes)} |\n"
        f"| best small-message reduction | up to ~30 % | "
        f"{t2.fig9_best_reduction_pct:.1f} % |\n\n"
        + code(t2.render())
    )

    # -------------------------------------------------------- ablations
    parts = ["## Ablations (DESIGN.md §5)\n"]
    for key, name in (
        ("A1", "dichotomy depth"),
        ("A2", "sampling grid density"),
        ("A3", "idle prediction under load"),
        ("A4", "offloading cost TO"),
        ("A5", "n-rail scaling"),
        ("A6", "estimation vs measured multicore run"),
        ("A7", "multicore receive progression (future work)"),
        ("A8", "stale vs fresh sampling under rail degradation"),
        ("A9", "sampling-noise robustness"),
        ("A10", "event-detection reactivity (polling / spill / interrupt)"),
        ("A11", "aggregation-window sensitivity"),
    ):
        parts.append(f"### {key} — {name}\n\n" + code(run(key).render()))
    sections.append("\n\n".join(parts))

    # ------------------------------------------------------- supplementary
    sections.append(
        "## S1 — stream multiplexing (supplementary; §II-A / Fig. 1)\n\n"
        + code(run("S1").render())
    )
    return "\n\n".join(sections) + "\n"


def main() -> None:
    OUT.write_text(render())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
