"""End-to-end benchmark of the multirail engine simulator.

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out PATH]

Runs each workload named in BENCHMARK.json (or each one given with the
repeatable ``--workload``) one after another, each in a fresh
single-threaded process (``measure.py``), after timing its start-up in
separate fresh processes; the Fig. 8 oracle runs once, in a process of
its own.  Prints every metric with its unit, writes
the full results to ``--out`` as JSON, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json, or its per-layer
metrics with ``--trace 1``.

Exit status: 0 when every output checked out, 1 when an op failed or
a simulated output did not repeat, 2 when the benchmark could not run
(for instance without the ``src/repro`` tree next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MEASURE = HERE / "measure.py"
DEFAULT_OUT = HERE / "results" / "latest.json"

#: fresh-process start-ups timed per workload (their median is setup_s)
SETUP_PROBES = 5
#: a child that runs longer than this is stopped and the run fails
CHILD_TIMEOUT_S = 170
#: the workload whose op the Fig. 8 oracle is
ORACLE_WORKLOAD = "p2p_rdv_split"

#: metrics of the modelled system: exact, and equal across commits
#: unless the change claims a model change (``compare.py``)
SIM_METRICS = {
    "sim_us_p50",
    "sim_us_tail",
    "sim_goodput_mbps",
    "paper_err_pct",
    "ops_failed_frac",
    "core.strategies.split_frac",
    "networks.nic.busy_frac",
    "hardware.core_busy_frac",
    "pioman.offloads_per_op",
    "pioman.interrupts_per_op",
    "networks.nic.wait_us_p50",
    "networks.nic.wait_us_p99",
    "networks.switch.lag_us_p99",
}


def kind_of(metric: str) -> str:
    """``sim`` for the modelled system, ``host`` for the simulator."""
    if metric in SIM_METRICS or metric.startswith("api.collectives.pick."):
        return "sim"
    return "host"


class BenchError(Exception):
    """The benchmark could not run (exit status 2)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Start-ups import cached bytecode, as a user's do; without the cache
    # every probe would also time compiling `repro` from source, about as
    # long again as the import.  The cache lands in __pycache__/ next to
    # the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # One thread: numpy's BLAS must not fan out next to the simulator.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: List[str]) -> str:
    """Run ``measure.py`` with ``args``; its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(MEASURE), *args],
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measure.py {' '.join(args)} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"measure.py {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, probes: int, oracle: float
) -> Dict[str, Any]:
    setups = [json.loads(_child(["--probe", name])) for _ in range(probes)]
    result = json.loads(
        _child(
            [
                "--workload", name, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(int(trace)),
            ]
        )
    )
    result["setup_probes"] = setups
    result["metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    # The oracle does not depend on the workload's inputs, so it is
    # simulated once per invocation; every workload reports it because
    # the result line must carry every declared metric.
    result["metrics"]["paper_err_pct"] = oracle
    if name == ORACLE_WORKLOAD:
        result["attempted"] += 1
        result["failed"] += oracle > 2.0
        result["metrics"]["ops_failed_frac"] = result["failed"] / result["attempted"]
    checks = {
        "no failed op": result["failed"] == 0,
        "episode 0 repeats": result.get("rerun_identical", True),
        "traced run simulates the same": result.get("traced_sim_digest")
        == result.get("untraced_sim_digest"),
    }
    result["checks"] = checks
    result["correct"] = all(checks.values())
    return result


def _declared(spec: Dict[str, Any], trace: bool) -> Dict[str, str]:
    """Metric name -> unit for the mode's declared metrics."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def _units(spec: Dict[str, Any]) -> Dict[str, str]:
    # ops_failed_frac is reported but not declared: it is 0 on a healthy
    # run, and the result line's `failed`/`attempted` carry it already.
    units = {"ops_failed_frac": "fraction"}
    units.update(
        (m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]
    )
    return units


def _report(name: str, result: Dict[str, Any], units: Dict[str, str]) -> None:
    print(
        f"== {name}: {result['episodes']} episodes, {result['attempted']} ops, "
        f"{result['failed']} failed, {result['sim_samples']} latency samples "
        f"(tail = p{100 * result['sim_tail_quantile']:.2f}), "
        f"sim_digest {result['sim_digest']}"
    )
    for metric in sorted(result["metrics"]):
        value = result["metrics"][metric]
        print(f"  {metric:<42} {value:>16.6g} {units.get(metric, '')}")
    for check, ok in result["checks"].items():
        if not ok:
            print(f"  FAILED CHECK: {check}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append",
        help="a workload to run; repeatable (default: all, in BENCHMARK.json order)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured host time per workload (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add the traced pass and report the per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="a 1 s smoke run with one start-up probe",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    try:
        spec_path = ROOT / "BENCHMARK.json"
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no src/repro tree under {ROOT}")
        spec = json.loads(spec_path.read_text())
        names = [w["name"] for w in spec["workloads"]]
        unknown = sorted(set(args.workload or ()) - set(names))
        if unknown:
            raise BenchError(f"unknown workload(s) {unknown}; have {names}")
        seconds = args.seconds or (1.0 if args.quick else float(spec["run_seconds"]))
        probes = 1 if args.quick else SETUP_PROBES
        trace = bool(args.trace)
        declared = _declared(spec, trace)
        oracle = json.loads(_child(["--oracle"]))["paper_err_pct"]
        results: Dict[str, Any] = {}
        for name in args.workload or names:
            result = run_workload(name, args.seed, seconds, trace, probes, oracle)
            missing = sorted(set(declared) - set(result["metrics"]))
            if missing:
                raise BenchError(f"{name} did not report {missing}")
            results[name] = result
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    units = _units(spec)
    for name, result in results.items():
        _report(name, result, units)
        result["metrics"] = {
            metric: {
                "value": value, "unit": units.get(metric, ""), "kind": kind_of(metric)
            }
            for metric, value in result["metrics"].items()
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(
            {
                "seed": args.seed,
                "seconds": seconds,
                "trace": trace,
                "host_cpus": os.cpu_count(),
                "python": platform.python_version(),
                "workloads": results,
            },
            indent=1,
            sort_keys=True,
        )
    )
    single = len(results) == 1

    def key(name: str, metric: str) -> str:
        return metric if single else f"{name}:{metric}"

    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            key(name, metric): {
                "value": r["metrics"][metric]["value"],
                "unit": unit,
            }
            for name, r in results.items()
            for metric, unit in declared.items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
