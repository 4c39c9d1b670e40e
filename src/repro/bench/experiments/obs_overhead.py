"""OBS — observability overhead: enabled hooks must not move simulated time.

The PR 3 guard scenario.  The same healthy burst workload as ``DEG``'s
baseline runs two ways, once each:

* **off** — observability not built (the default; exactly PR 2's path);
* **on** — full tracing + metrics + accuracy.

The two bandwidth columns must be identical: telemetry is purely
passive.  ``BENCH_PR3.json`` holds the committed numbers, and
``cli run OBS --json PATH`` regenerates its simulated values (the
payload has no wall-clock columns).  The wall-clock cost of the obs
bundle is measured by the end-to-end benchmark's ``moe_fat_tree_obs``
workload (``benchmarks/e2e``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.experiments.degraded import BURST, SIZES, committed_mbps, run_burst
from repro.bench.series import Series, SweepResult


def _measure(size: int, observability: bool) -> Tuple[float, float, int]:
    """One healthy BURST at ``size`` bytes: (aggregate MB/s, makespan µs,
    trace events recorded)."""
    burst = run_burst(size, (lambda b: b.observability()) if observability else None)
    return burst.mbps, burst.makespan_us, len(burst.cluster.obs.tracer)


@dataclass
class ObsOverheadResult(SweepResult):
    """The OBS sweep plus its BENCH_PR3 points."""

    points: List[Dict] = field(default_factory=list)

    def payload(self) -> Dict:
        """The BENCH_PR3.json payload: per-size off/on identity checks."""
        return {
            "schema": 1,
            "pr": 3,
            "description": (
                "Observability overhead guard: the DEG healthy burst "
                f"({BURST} messages, paper testbed, hetero_split) with "
                "repro.obs disabled vs fully enabled.  Simulated makespan "
                "and throughput must be bit-identical in both modes, and "
                "the disabled numbers must equal BENCH_PR2.json's "
                "healthy_mbps exactly.  Each mode runs once; the "
                "wall-clock cost is measured by benchmarks/e2e."
            ),
            "harness": "python -m repro.bench.cli run OBS --json PATH",
            "scenario": {"burst": BURST, "sizes": list(SIZES)},
            "points": self.points,
        }


def run() -> ObsOverheadResult:
    """Observability overhead: healthy burst throughput, hooks off vs on."""
    pr2 = committed_mbps("BENCH_PR2.json", "healthy_mbps")
    points = []
    on: List[float] = []
    for size in SIZES:
        bw_off, mk_off, _ = _measure(size, observability=False)
        bw_on, mk_on, events = _measure(size, observability=True)
        on.append(bw_on)
        points.append(
            {
                "size": size,
                "makespan_us": mk_off,
                "makespan_identical": mk_off == mk_on,
                "mbps": bw_off,
                "mbps_identical": bw_off == bw_on,
                "matches_bench_pr2": pr2[size] == bw_off if size in pr2 else None,
                "trace_events_recorded": events,
            }
        )
    return ObsOverheadResult(
        title=(
            f"OBS: {BURST}-message healthy burst, observability off vs on "
            "(identical columns = zero simulated overhead)"
        ),
        x_sizes=list(SIZES),
        series=[
            Series(label="obs off", values=[p["mbps"] for p in points]),
            Series(label="obs on", values=on),
        ],
        y_label="aggregate bandwidth, MB/s",
        points=points,
    )
