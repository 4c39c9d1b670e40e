"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
                                      --change C1.json C2.json ... [--model-change]

Each file is a ``run.py --out`` result.  Run the two commits
alternately (parent first in one pair, change first in the next) with
the same ``--seed``/``--seconds``; the i-th parent file pairs with the
i-th change file.

For every workload and end-to-end metric of BENCHMARK.json this prints
one row: both sides' median and quartiles, the share by which the
change is worse, how many pairs the change won, and a verdict:

* ``gain`` — at least 10 pairs, the change won at least 9 in 10 (ties
  count for neither side), and the medians differ by more than the
  parent's interquartile distance;
* ``REGRESSED`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own spread is wider than the bound, so
  the runs cannot tell, unless every change run beats every parent run;
* ``ok`` — none of the above.

A gain on a workload where the change fails more ops than the parent is
reported as ``void``.  The tool also prints each side's failed-op share,
and checks the modelled system: every
simulated metric and each workload's ``sim_digest`` must be identical
pair by pair, unless ``--model-change`` says the change means to move
them.  Exit status 1 on a regression or an unclaimed simulated change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]

#: pairs needed before a gain may be claimed, and the share it must win
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], higher: bool, bound: float
) -> Dict[str, object]:
    """The comparison row of one workload x metric."""
    sign = 1.0 if higher else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (cm - pm) > p3 - p1
    ):
        call = "gain"
    elif spread > bound and not all_better:
        call = "unresolved"
    elif worse_by > bound:
        call = "REGRESSED"
    else:
        call = "ok"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "worse_by": worse_by,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": call,
    }


def _load(paths: List[Path]) -> List[dict]:
    return [json.loads(p.read_text()) for p in paths]


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [r["workloads"][workload]["metrics"][metric]["value"] for r in runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument(
        "--model-change", action="store_true",
        help="the change means to move simulated results",
    )
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of runs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _load(args.parent), _load(args.change)
    workloads = [
        w["name"]
        for w in spec["workloads"]
        if all(w["name"] in r["workloads"] for r in parent + change)
    ]
    failing = False
    print(
        f"{'workload':<18} {'metric':<17} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'worse':>7} {'wins':>6}  verdict"
    )
    for workload in workloads:
        p_fail = statistics.median(_values(parent, workload, "ops_failed_frac"))
        c_fail = statistics.median(_values(change, workload, "ops_failed_frac"))
        for m in spec["end_to_end"]:
            row = verdict(
                _values(parent, workload, m["name"]),
                _values(change, workload, m["name"]),
                m["better"] == "higher",
                m["bound"],
            )
            if row["verdict"] == "gain" and c_fail > p_fail:
                row["verdict"] = "void (more failed ops)"
            failing |= row["verdict"] == "REGRESSED"
            p1, pm, p3 = row["parent"]
            c1, cm, c3 = row["change"]
            worse = round(100 * row["worse_by"], 1) + 0.0  # no "-0.0"
            print(
                f"{workload:<18} {m['name']:<17} "
                f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>32} "
                f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>32} "
                f"{worse:>6.1f}% {row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}"
            )
        print(
            f"{workload:<18} failed-op share: parent {p_fail:.4g}, "
            f"change {c_fail:.4g}"
        )

    sim_changed = []
    for i, (p, c) in enumerate(zip(parent, change)):
        if p["seed"] != c["seed"] or p["seconds"] != c["seconds"]:
            print(f"pair {i}: seeds or run lengths differ; not compared exactly")
            continue
        for workload in workloads:
            pw, cw = p["workloads"][workload], c["workloads"][workload]
            if pw["sim_digest"] != cw["sim_digest"]:
                sim_changed.append(f"pair {i} {workload}: sim_digest")
            for name, rec in pw["metrics"].items():
                other = cw["metrics"].get(name, {}).get("value")
                if rec["kind"] == "sim" and other != rec["value"]:
                    sim_changed.append(f"pair {i} {workload}: {name}")
    if sim_changed:
        print("simulated outputs differ:")
        for item in sim_changed:
            print(f"  {item}")
        if args.model_change:
            print("(accepted: --model-change)")
        else:
            failing = True
    else:
        print("simulated outputs identical across every pair")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
