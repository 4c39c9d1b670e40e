"""COLL — collective algorithms on switched fabrics (BENCH_PR7.json).

The collectives PR's headline numbers: the classic schedules from
:mod:`repro.api.collectives` against the naive compositions on fabrics
with real port contention.

Two scenario families:

* **Uniform all-to-all** at 8/32/128 ranks on a flat switched fabric.
  The naive composition posts every flow at once — an incast storm at
  every output port — while ``ring`` (rank-shifted pairwise rounds) and
  ``doubling`` (Bruck) keep at most one flow per port per phase.
* **Skewed (MoE-shaped) all-to-allv** on a fat tree: two hot ranks
  receive ``skew``× the base traffic (an expert-parallel router's
  token distribution).  Uniform striping (``naive``) saturates the hot
  ports late; the RailS-style balanced schedule (``rails``) orders every
  source's segments largest-remaining-destination-first.  The committed
  numbers average over hot-rank placements — the naive fixed 0..n-1
  destination order is accidentally optimal when the hot ranks are 0,1,
  so a single placement would under-report the imbalance.

Everything here is simulated time (µs) — deterministic across hosts, so
``BENCH_PR7.json`` pins exact ratios, not noisy wall-clock rates.
``cli run COLL --json PATH`` regenerates its two collective sections;
the rendered tables end with the cost model's predictions for the
8-rank all-to-all, next to the measured makespans above them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.api import collectives as coll
from repro.bench.runners import default_profiles
from repro.util.units import format_size

#: rail technologies of every scenario fabric (the paper's pair)
RAILS = ("myri10g", "quadrics")
#: uniform all-to-all: rank counts on the flat switched fabric
ALLTOALL_RANKS = (8, 32, 128)
#: per-pair payload, sized so every rank moves ~2 MiB total regardless
#: of the rank count (keeps the three points comparable and the 128-rank
#: simulation tractable)
ALLTOALL_SIZES = {8: 256 * 1024, 32: 64 * 1024, 128: 16 * 1024}
#: algorithms raced in the uniform scenario
ALLTOALL_ALGORITHMS = ("naive", "ring", "doubling", "rails")
#: skewed all-to-allv: world size, fat-tree fabric
MOE_RANKS = 8
#: base bytes per (cold) destination
MOE_BASE = 64 * 1024
#: hot ranks receive skew x base from every source
MOE_SKEW = 8
#: hot-rank placements averaged over (first / spread / last)
MOE_PLACEMENTS: Tuple[Tuple[int, ...], ...] = ((0, 1), (3, 6), (6, 7))


def _world(n: int, shape: str):
    """An ``MpiWorld`` over a switched fabric with shared profiles."""
    from repro.api.mpi import MpiWorld
    from repro.hardware.topology import Fabric

    fabric = (
        Fabric.flat(n, rails=RAILS)
        if shape == "flat"
        else Fabric.fat_tree(n, rails=RAILS)
    )
    return MpiWorld.create(fabric=fabric, profiles=default_profiles(RAILS))


def measure_alltoall(
    n: int, size: int, algorithm: str, shape: str = "flat"
) -> float:
    """Makespan (simulated µs) of one uniform all-to-all."""
    world = _world(n, shape)

    def program(comm):
        yield from comm.alltoall(size, algorithm=algorithm)

    world.spawn_all(program)
    world.run()
    return world.cluster.sim.now


def measure_alltoallv(
    matrix: Sequence[Sequence[int]], algorithm: str, shape: str = "fat_tree"
) -> float:
    """Makespan (simulated µs) of one irregular all-to-all."""
    world = _world(len(matrix), shape)

    def program(comm):
        yield from comm.alltoallv(matrix, algorithm=algorithm)

    world.spawn_all(program)
    world.run()
    return world.cluster.sim.now


def alltoall_table(
    ranks: Sequence[int] = ALLTOALL_RANKS,
    algorithms: Sequence[str] = ALLTOALL_ALGORITHMS,
) -> List[Dict]:
    """One row per rank count: per-algorithm makespans + speedups."""
    rows: List[Dict] = []
    for n in ranks:
        size = ALLTOALL_SIZES[n]
        makespans = {
            algo: measure_alltoall(n, size, algo) for algo in algorithms
        }
        naive = makespans["naive"]
        rows.append(
            {
                "ranks": n,
                "bytes_per_pair": size,
                "makespan_us": makespans,
                "speedup_vs_naive": {
                    algo: naive / t for algo, t in makespans.items()
                },
            }
        )
    return rows


def skewed_table(
    placements: Sequence[Tuple[int, ...]] = MOE_PLACEMENTS,
) -> Dict:
    """RailS balancer vs uniform striping over hot-rank placements."""
    points = []
    for hot in placements:
        matrix = coll.moe_matrix(
            MOE_RANKS, MOE_BASE, skew=MOE_SKEW, hot=list(hot)
        )
        naive = measure_alltoallv(matrix, "naive")
        rails = measure_alltoallv(matrix, "rails")
        points.append(
            {
                "hot_ranks": list(hot),
                "naive_us": naive,
                "rails_us": rails,
                "speedup": naive / rails,
            }
        )
    mean_naive = sum(p["naive_us"] for p in points) / len(points)
    mean_rails = sum(p["rails_us"] for p in points) / len(points)
    return {
        "ranks": MOE_RANKS,
        "base_bytes": MOE_BASE,
        "skew": MOE_SKEW,
        "placements": points,
        "mean_naive_us": mean_naive,
        "mean_rails_us": mean_rails,
        "mean_speedup": mean_naive / mean_rails,
    }


@dataclass
class CollectivesResult:
    """Registry-shaped result: the two scenario tables, renderable."""

    alltoall: List[Dict]
    skewed: Dict
    #: ``AlgorithmSelector.table`` for the 8-rank uniform all-to-all
    cost_table: str = ""
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            "COLL: all-to-all on a flat switched fabric "
            f"(rails {'+'.join(RAILS)}; simulated us, lower is better)",
            "",
            f"{'ranks':>5} {'per-pair':>9} "
            + "".join(f"{a:>12}" for a in ALLTOALL_ALGORITHMS)
            + f"{'best/naive':>12}",
        ]
        for row in self.alltoall:
            span = row["makespan_us"]
            best = max(
                v for k, v in row["speedup_vs_naive"].items() if k != "naive"
            )
            lines.append(
                f"{row['ranks']:>5} {format_size(row['bytes_per_pair']):>9} "
                + "".join(
                    f"{span[a]:>12.1f}" for a in ALLTOALL_ALGORITHMS
                )
                + f"{best:>11.2f}x"
            )
        sk = self.skewed
        lines += [
            "",
            f"skewed all-to-allv, {sk['ranks']} ranks on a fat tree "
            f"(hot ranks get {sk['skew']}x{format_size(sk['base_bytes'])}):",
            f"{'hot ranks':>12} {'naive us':>12} {'rails us':>12} {'speedup':>9}",
        ]
        for p in sk["placements"]:
            lines.append(
                f"{str(tuple(p['hot_ranks'])):>12} {p['naive_us']:>12.1f} "
                f"{p['rails_us']:>12.1f} {p['speedup']:>8.2f}x"
            )
        lines.append(
            f"{'mean':>12} {sk['mean_naive_us']:>12.1f} "
            f"{sk['mean_rails_us']:>12.1f} {sk['mean_speedup']:>8.2f}x"
        )
        if self.notes:
            lines += [""] + self.notes
        lines += ["", self.cost_table]
        return "\n".join(lines)

    def payload(self) -> Dict:
        """The collective sections of the BENCH_PR7.json payload."""
        return {
            "alltoall_flat_switch": self.alltoall,
            "skewed_alltoallv_fat_tree": self.skewed,
        }


def run(ranks: Sequence[int] = ALLTOALL_RANKS) -> CollectivesResult:
    """Collective-algorithm race: switched all-to-all + skewed RailS."""
    selector = coll.AlgorithmSelector(default_profiles(RAILS).estimators)
    return CollectivesResult(
        alltoall=alltoall_table(ranks=ranks),
        skewed=skewed_table(),
        cost_table=selector.table("alltoall", ALLTOALL_SIZES[8], 8),
        notes=[
            "naive posts all flows at once (per-port incast storm); ring"
            " staggers rank-shifted rounds; doubling is Bruck; rails is the"
            " segmented largest-remaining-first balanced schedule.",
        ],
    )
