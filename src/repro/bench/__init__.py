"""Benchmark harness: runners, series formatting, experiment registry.

Every figure and in-text table of the paper's evaluation (§IV), and
every committed ``BENCH_PR*.json`` payload, has one regenerator in
:mod:`repro.bench.experiments`.  ``python -m repro.bench.cli run EXP``
prints it (``--json`` writes the payload); ``tests/paper/`` asserts the
validation contract from DESIGN.md §6 (shape, not absolute numbers) and
checks every committed simulated number exactly.
"""

from repro.bench.series import Series, SweepResult, format_table
from repro.bench.charts import ascii_chart
from repro.bench.runners import (
    default_profiles,
    build_paper_cluster,
    measure_oneway,
    measure_pair_completion,
    sweep_oneway,
)

__all__ = [
    "Series",
    "SweepResult",
    "format_table",
    "ascii_chart",
    "default_profiles",
    "build_paper_cluster",
    "measure_oneway",
    "measure_pair_completion",
    "sweep_oneway",
]
