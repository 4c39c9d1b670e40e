"""Experiment registry: one module per paper artefact.

==========  ========================================================
FIG1        the placement schematic, regenerated as measured timelines
FIG3        greedy balancing vs aggregation (transfer time, 4 B–16 KiB)
FIG4        PIO combination timings: serial / aggregated / offloaded
FIG8        message splitting bandwidth (32 KiB–8 MiB)
FIG9        small-message splitting latency estimation, eq. (1)
T1          §IV-A in-text 4 MiB chunk-time table
T2          §III-D/§IV in-text micro-measurements and plateaus
A1..A11     design-choice ablations (DESIGN.md §5)
S1          §II-A stream-multiplexing claim (supplementary)
DEG         degraded-mode bandwidth: one rail flapping at 50% duty
OBS         observability overhead: hooks off vs fully enabled
CHAOS       chaos soak + invariant-checker overhead guard
CAL         drift defense: blind vs calibrated under silent degrade
COLL        collective algorithms vs naive on switched fabrics
FAB         fabric fault tolerance: re-planning vs blind under spine loss
==========  ========================================================

Every module exposes ``run(...) -> SweepResult`` (or a small dataclass
for the non-sweep artefacts) plus module-level constants with the paper's
reference numbers for EXPERIMENTS.md.  Each ``run`` measures once: its
result renders the table and, for DEG/OBS/CHAOS/CAL/COLL/FAB, builds
the committed JSON payload (``payload()``, the
``BENCH_PR2/3/4/5/7/10.json`` content that ``cli run EXP --json``
writes).
"""

from repro.bench.experiments import (
    ablations,
    calibration,
    chaos_soak,
    collectives,
    degraded,
    fabric_faults,
    fig1,
    fig3,
    fig4,
    fig8,
    fig9,
    obs_overhead,
    streams,
    text_tables,
)

experiment_registry = {
    "FIG1": fig1.run,
    "FIG3": fig3.run,
    "FIG4": fig4.run,
    "FIG8": fig8.run,
    "FIG9": fig9.run,
    "T1": text_tables.run_t1,
    "T2": text_tables.run_t2,
    "A1": ablations.run_a1_dichotomy_depth,
    "A2": ablations.run_a2_sampling_grid,
    "A3": ablations.run_a3_idle_prediction,
    "A4": ablations.run_a4_offload_cost,
    "A5": ablations.run_a5_nrail,
    "A6": ablations.run_a6_estimation_vs_measured,
    "A7": ablations.run_a7_multicore_rx,
    "A8": ablations.run_a8_stale_sampling,
    "A9": ablations.run_a9_sampling_noise,
    "A10": ablations.run_a10_reactivity,
    "A11": ablations.run_a11_aggregation_window,
    "S1": streams.run,
    "DEG": degraded.run,
    "OBS": obs_overhead.run,
    "CHAOS": chaos_soak.run,
    "CAL": calibration.run,
    "COLL": collectives.run,
    "FAB": fabric_faults.run,
}

__all__ = [
    "experiment_registry",
    "calibration",
    "chaos_soak",
    "collectives",
    "degraded",
    "fabric_faults",
    "obs_overhead",
    "fig1",
    "fig3",
    "fig4",
    "fig8",
    "fig9",
    "streams",
    "text_tables",
    "ablations",
]
