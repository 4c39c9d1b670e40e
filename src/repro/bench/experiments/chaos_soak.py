"""CHAOS — chaos-soak throughput and the invariant-checker overhead guard.

The PR 4 guard scenario, two halves:

1. **Healthy-path bit-identity.**  The OBS healthy burst runs with the
   :class:`~repro.core.invariants.InvariantMonitor` off (the default
   path) and on.  Simulated makespan and throughput must be
   bit-identical — the monitor is purely passive — and the *off*
   numbers must equal the committed ``BENCH_PR3.json`` exactly, proving
   the delivery-integrity hardening (sequence numbers, checksums,
   duplicate suppression) did not move a single timestamp.

2. **Soak throughput.**  A fixed window of chaos seeds
   (:data:`SOAK_SEEDS`) is soaked with invariants on and off;
   ``BENCH_PR4.json`` pins zero violations and reports scenarios/sec
   both ways (wall-time, informational) so the checker's cost under
   fault-heavy load stays visible.

``cli run CHAOS --json PATH`` regenerates the payload.  See
``docs/chaos.md`` for the seed workflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.experiments.degraded import BURST, SIZES, committed_mbps, run_burst

#: the fixed seed window soaked by `make chaos` / CI and BENCH_PR4.json
SOAK_SEEDS = 50

#: wall-time repeats per healthy mode (the minimum is reported)
REPEATS = 3


def _measure(size: int, invariants: bool) -> Tuple[float, float, float, int]:
    """One healthy BURST at ``size`` bytes, invariant monitor off or on.

    Returns (makespan µs, MB/s, wall seconds, checks performed).
    """
    burst = run_burst(size, (lambda b: b.invariants()) if invariants else None)
    cluster = burst.cluster
    checks = cluster.invariants.checks_performed if cluster.invariants else 0
    return cluster.sim.now, burst.mbps, burst.wall_s, checks


def _best(size: int, invariants: bool) -> Tuple[float, float, float, int]:
    """Repeat :func:`_measure`; keep the fastest wall time (simulated
    numbers are identical across repeats by construction)."""
    best = None
    for _ in range(REPEATS):
        sample = _measure(size, invariants)
        if best is None or sample[2] < best[2]:
            best = sample
    return best


@dataclass
class ChaosSoakResult:
    """The BENCH_PR4 numbers: healthy-burst points and soak totals."""

    #: per size: off-mode makespan/MB/s, bit-identity with the monitor
    #: on, BENCH_PR3 match, checks and fastest wall times
    points: List[Dict]
    #: the 50-seed soak, monitor on vs off
    soak: Dict

    def render(self) -> str:
        soak = self.soak
        lines = [
            f"CHAOS: {soak['seeds']}-seed chaos soak under the invariant "
            "monitor",
            "",
            f"  violations           {soak['violations_on']}",
            f"  invariant checks     {soak['total_invariant_checks']}",
            f"  faults fired         {soak['total_faults_fired']}",
            f"  scenarios/sec (on)   {soak['scenarios_per_sec_on']:.2f}",
            f"  scenarios/sec (off)  {soak['scenarios_per_sec_off']:.2f}",
            "",
            "  healthy burst, monitor off vs on "
            "(identical = zero simulated overhead):",
        ]
        for p in self.points:
            same = p["makespan_identical"] and p["mbps_identical"]
            mark = "identical" if same else "DIVERGED"
            lines.append(f"    {p['size']:>9}B  {p['mbps']:10.2f} MB/s  {mark}")
        return "\n".join(lines)

    def payload(self) -> Dict:
        """The BENCH_PR4.json payload."""
        return {
            "schema": 1,
            "pr": 4,
            "description": (
                "Chaos-soak and invariant-checker guard: the OBS healthy "
                f"burst ({BURST} messages, paper testbed, hetero_split) "
                "with the invariant monitor off vs on — simulated makespan "
                "and throughput must be bit-identical, and the off numbers "
                "must equal BENCH_PR3.json's mbps exactly.  The soak block "
                "pins zero violations over seeds "
                f"0..{SOAK_SEEDS - 1} and reports scenarios/sec with the "
                "monitor on vs off (wall-time, informational; "
                f"fastest-of-{REPEATS} repeats for the burst)."
            ),
            "harness": "python -m repro.bench.cli run CHAOS --json PATH",
            "scenario": {
                "burst": BURST,
                "repeats": REPEATS,
                "sizes": list(SIZES),
                "soak_seeds": SOAK_SEEDS,
            },
            "points": self.points,
            "soak": self.soak,
        }


def run() -> ChaosSoakResult:
    """Chaos soak + invariant-overhead summary (the PR 4 guard)."""
    from repro.faults import soak

    pr3 = committed_mbps("BENCH_PR3.json", "mbps")
    points = []
    for size in SIZES:
        mk_off, bw_off, wall_off, _ = _best(size, invariants=False)
        mk_on, bw_on, wall_on, checks = _best(size, invariants=True)
        points.append(
            {
                "size": size,
                "makespan_us": mk_off,
                "makespan_identical": mk_off == mk_on,
                "mbps": bw_off,
                "mbps_identical": bw_off == bw_on,
                "matches_bench_pr3": (
                    pr3[size] == bw_off if size in pr3 else None
                ),
                "invariant_checks": checks,
                "wall_off_s": wall_off,
                "wall_on_s": wall_on,
            }
        )
    on = soak(SOAK_SEEDS)
    off = soak(SOAK_SEEDS, invariants=False)
    return ChaosSoakResult(
        points=points,
        soak={
            "seeds": SOAK_SEEDS,
            "violations_on": len(on.violations),
            "violations_off": len(off.violations),
            "scenarios_per_sec_on": on.scenarios_per_sec,
            "scenarios_per_sec_off": off.scenarios_per_sec,
            "total_invariant_checks": sum(
                s.checks_performed for s in on.scenarios
            ),
            "total_faults_fired": sum(s.faults_fired for s in on.scenarios),
            "total_retries": sum(s.retries_issued for s in on.scenarios),
            "total_duplicates_suppressed": sum(
                s.duplicates_suppressed for s in on.scenarios
            ),
            "total_deliveries_cancelled": sum(
                s.deliveries_cancelled for s in on.scenarios
            ),
        },
    )
