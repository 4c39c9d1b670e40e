"""Command-line experiment runner.

Usage::

    python -m repro.bench.cli list
    python -m repro.bench.cli run FIG8
    python -m repro.bench.cli run DEG --json BENCH_PR2.json
    python -m repro.bench.cli run all
    python -m repro.bench.cli sweep --sizes 64K,1M,8M --strategies hetero_split,iso_split
    python -m repro.bench.cli metrics --json -
    python -m repro.bench.cli accuracy --faults
    python -m repro.bench.cli chaos --seeds 50
    python -m repro.bench.cli topology --shape fat_tree --nodes 16

``run`` regenerates a registered paper artefact and prints its table;
it is the one way to print or write an artefact.  ``--json`` dumps the
committed payload of DEG, CHAOS, CAL, COLL or FAB (``BENCH_PR2/4/5/7/10``;
``-`` for stdout, the table then goes to stderr).
``sweep`` is a free-form bandwidth sweep for ad-hoc exploration;
``metrics`` and ``accuracy`` run instrumented demo scenarios and print
(or dump as JSON — see docs/observability.md for the schemas) the
telemetry the ``repro.obs`` subsystem collects;
``chaos`` soaks seeded randomized fault scenarios under the runtime
invariant monitor (see docs/chaos.md) and exits nonzero on any
violation — ``--shrink`` reduces failing seeds to minimal schedules,
``--silent`` adds silent-degrade episodes (and ``--calibration`` arms
the drift loop against them);
``topology`` prints the ASCII picture of a fabric — a canned shape via
``--shape``/``--nodes`` or the ``fabric:`` section of a cluster config
via ``--config``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the paper's experiments from the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list'), or 'all'")
    run.add_argument(
        "--csv",
        metavar="PATH",
        help="also dump the result as CSV (sweep-shaped experiments only)",
    )
    run.add_argument(
        "--chart",
        action="store_true",
        help="also render an ASCII chart (sweep-shaped experiments only)",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        help="also dump the committed JSON payload ('-' for stdout; "
        "payload experiments only: DEG, CHAOS, CAL, COLL, FAB)",
    )

    sweep = sub.add_parser("sweep", help="ad-hoc bandwidth/latency sweep")
    sweep.add_argument(
        "--sizes", default="64K,1M,8M", help="comma-separated sizes (4K, 8M, ...)"
    )
    sweep.add_argument(
        "--strategies",
        default="single_rail,iso_split,hetero_split",
        help="comma-separated strategy names",
    )
    sweep.add_argument(
        "--metric", choices=("latency", "bandwidth"), default="bandwidth"
    )
    sweep.add_argument(
        "--rails",
        default="myri10g,quadrics",
        help="comma-separated rail technologies",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep cells (0 = one per CPU)",
    )

    metrics = sub.add_parser(
        "metrics", help="run an instrumented scenario; print its metrics"
    )
    metrics.add_argument(
        "--faults",
        action="store_true",
        help="inject the flapping-rail schedule (retry/degradation counters)",
    )
    metrics.add_argument(
        "--json",
        metavar="PATH",
        help="dump the metrics snapshot as JSON ('-' for stdout)",
    )
    metrics.add_argument(
        "--trace",
        metavar="PATH",
        help="also write the Chrome trace_event JSON (load in Perfetto)",
    )
    metrics.add_argument(
        "--fabric",
        action="store_true",
        help="only the fabric.* section (per-link/spine/wire accounting)",
    )

    accuracy = sub.add_parser(
        "accuracy", help="prediction-accuracy telemetry demo scenario"
    )
    accuracy.add_argument(
        "--faults",
        action="store_true",
        help="degrade a rail under the predictor's feet (nonzero error)",
    )
    accuracy.add_argument(
        "--json",
        metavar="PATH",
        help="dump the accuracy snapshot as JSON ('-' for stdout)",
    )
    accuracy.add_argument(
        "--fabric",
        action="store_true",
        help="run the switched-fabric scenario instead (8-rank flat "
        "switch alltoall) — predictions vs a contended fabric",
    )

    obs = sub.add_parser(
        "obs",
        help="fabric observability: utilization, critical path, stragglers",
    )
    obs.add_argument(
        "action",
        choices=("report",),
        help="'report': run an obs-on collective on a switched fabric "
        "and summarize what the fabric did",
    )
    obs.add_argument(
        "--shape",
        choices=("flat", "fat_tree"),
        default="fat_tree",
        help="fabric shape (default fat_tree)",
    )
    obs.add_argument(
        "--ranks", type=int, default=8, help="world size (default 8)"
    )
    obs.add_argument(
        "--algorithm",
        default="ring",
        help="alltoall algorithm to profile (default ring)",
    )
    obs.add_argument(
        "--json",
        metavar="PATH",
        help="dump the full report payload as JSON ('-' for stdout)",
    )

    chaos = sub.add_parser(
        "chaos", help="seeded chaos soak under the invariant monitor"
    )
    chaos.add_argument(
        "--seeds",
        default="50",
        help="seed window: a count N (seeds 0..N-1) or a range like 100-150",
    )
    chaos.add_argument(
        "--intensity",
        type=int,
        default=None,
        help="fault episodes per scenario (default 3)",
    )
    chaos.add_argument(
        "--shrink",
        action="store_true",
        help="reduce every failing seed to a minimal episode schedule",
    )
    chaos.add_argument(
        "--silent",
        action="store_true",
        help="add silent-degrade episodes (bandwidth drops with no fault "
        "event announced — only the drift loop can notice)",
    )
    chaos.add_argument(
        "--calibration",
        action="store_true",
        help="arm the calibration drift loop during the soak",
    )
    chaos.add_argument(
        "--shape",
        choices=("paper", "flat", "fat_tree"),
        default="paper",
        help="testbed shape: the two-node paper testbed (default) or a "
        "switched fabric whose episode pool adds spine outages, port "
        "flaps and pod partitions (docs/fabric-faults.md)",
    )
    chaos.add_argument(
        "--ranks",
        type=int,
        default=8,
        help="world size for fabric shapes (default 8)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the soak (0 = one per CPU); per-seed "
        "results are deterministic, so any -j yields identical artifacts",
    )
    chaos.add_argument(
        "--artifact",
        metavar="PATH",
        help="dump the deterministic soak results as JSON (wall-clock "
        "fields excluded: byte-identical for --jobs 1 and --jobs N)",
    )
    chaos.add_argument(
        "--flight-dump",
        metavar="PATH",
        dest="flight_dump",
        help="write the flight-recorder post-mortems of every failing "
        "seed as JSON (empty list when the soak is green)",
    )

    topo = sub.add_parser(
        "topology", help="describe a fabric (nodes, per-rail link graphs)"
    )
    topo.add_argument(
        "--shape",
        choices=("paper", "full_mesh", "flat", "fat_tree"),
        default="paper",
        help="canned fabric shape (default: the two-node paper testbed)",
    )
    topo.add_argument(
        "--nodes", type=int, default=8, help="node count for canned shapes"
    )
    topo.add_argument(
        "--rails",
        default="myri10g,quadrics",
        help="comma-separated rail technologies for canned shapes",
    )
    topo.add_argument(
        "--config",
        metavar="PATH",
        help="describe the 'fabric' section of a cluster config file "
        "instead of a canned shape",
    )
    return parser


def _cmd_list() -> int:
    from repro.bench.experiments import experiment_registry

    width = max(len(k) for k in experiment_registry)
    for key, runner in experiment_registry.items():
        doc = (runner.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{key:<{width}}  {summary}")
    return 0


def _cmd_run(
    experiment: str,
    csv_path: Optional[str] = None,
    chart: bool = False,
    json_path: Optional[str] = None,
) -> int:
    from repro.bench.experiments import experiment_registry

    if experiment.lower() == "all":
        keys: Sequence[str] = list(experiment_registry)
        for flag, value in (("--csv", csv_path), ("--json", json_path)):
            if value:
                print(f"{flag} requires a single experiment", file=sys.stderr)
                return 2
    else:
        key = experiment.upper()
        if key not in experiment_registry:
            known = ", ".join(experiment_registry)
            print(f"unknown experiment {experiment!r}; known: {known}", file=sys.stderr)
            return 2
        keys = [key]
    # `--json -` keeps stdout for the JSON alone
    out = sys.stderr if json_path == "-" else sys.stdout
    for i, key in enumerate(keys):
        if i:
            print(file=out)
        result = experiment_registry[key]()
        print(result.render(), file=out)
        if chart:
            from repro.bench.charts import ascii_chart
            from repro.bench.series import SweepResult

            if isinstance(result, SweepResult):
                print(file=out)
                print(ascii_chart(result), file=out)
            else:
                print(f"{key} is not sweep-shaped; no chart", file=sys.stderr)
        if csv_path:
            if not hasattr(result, "to_csv"):
                print(
                    f"{key} is not sweep-shaped; no CSV written", file=sys.stderr
                )
                return 2
            result.to_csv(csv_path)
            print(f"csv written to {csv_path}", file=out)
        if json_path:
            if not hasattr(result, "payload"):
                print(f"{key} has no JSON payload", file=sys.stderr)
                return 2
            _dump_json(result.payload(), json_path, f"{key} payload")
    return 0


def _cmd_sweep(
    sizes: str, strategies: str, metric: str, rails: str, jobs: int = 1
) -> int:
    from repro.bench.runners import sweep_oneway
    from repro.util.units import parse_size

    try:
        size_list = [parse_size(s) for s in sizes.split(",") if s]
    except ValueError as exc:
        print(f"bad --sizes: {exc}", file=sys.stderr)
        return 2
    strategy_names = [s.strip() for s in strategies.split(",") if s.strip()]
    rail_tuple = tuple(r.strip() for r in rails.split(",") if r.strip())
    try:
        result = sweep_oneway(
            title=f"ad-hoc sweep over {rail_tuple}",
            sizes=size_list,
            strategies={name: name for name in strategy_names},
            metric=metric,
            rails=rail_tuple,
            jobs=jobs,
        )
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.render())
    return 0


def _dump_json(payload, path: str, label: str) -> None:
    """Write ``payload`` as sorted, indented JSON; ``-`` is stdout."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{label} written to {path}")


def _metrics_cluster(faults: bool):
    """The canonical instrumented scenario: the paper testbed pushing a
    size ladder both ways — with a flapping fast rail when asked."""
    from repro.api import ClusterBuilder, FaultSchedule

    builder = ClusterBuilder.paper_testbed(strategy="hetero_split")
    builder.observability()
    if faults:
        schedule = FaultSchedule(seed=11).flapping(
            "node0.myri10g0", period=400.0, duty=0.5, start=100.0, cycles=4
        )
        builder.faults(schedule).resilience(timeout="200us")
    cluster = builder.build()
    a, b = cluster.sessions("node0", "node1")
    for size in ("4K", "64K", "1M", "4M"):
        b.irecv(source="node0")
        a.isend("node1", size)
        a.irecv(source="node1")
        b.isend("node0", size)
    cluster.run()
    return cluster


def _fabric_slice(snap):
    """Only the ``fabric.*`` names (link/spine/wire accounting) of a
    metrics snapshot, family structure preserved."""
    return {
        family: (
            {
                name: value
                for name, value in values.items()
                if name.startswith("fabric.")
            }
            if isinstance(values, dict)
            else values
        )
        for family, values in snap.items()
    }


def _cmd_metrics(
    faults: bool,
    json_path: Optional[str],
    trace_path: Optional[str],
    fabric: bool = False,
) -> int:
    cluster = _metrics_cluster(faults)
    snap = cluster.metrics_snapshot()
    if fabric:
        snap = _fabric_slice(snap)
    print(
        f"scenario: paper testbed, 4K..4M both ways"
        f"{' + flapping node0.myri10g0' if faults else ''}"
        f"{' [fabric.* section]' if fabric else ''}"
    )
    print(f"simulated time: {cluster.sim.now:.2f}us")
    print()
    print("counters:")
    for name, value in snap["counters"].items():
        print(f"  {name:<44} {value:g}")
    print("gauges:")
    for name, value in snap["gauges"].items():
        print(f"  {name:<44} {value:g}")
    print("histograms:")
    for name, hist in snap["histograms"].items():
        mean = hist["total"] / hist["count"] if hist["count"] else 0.0
        print(
            f"  {name:<44} n={hist['count']} mean={mean:.2f} "
            f"max={hist['max']:g}"
        )
    if json_path:
        _dump_json(snap, json_path, "metrics snapshot")
    if trace_path:
        events = cluster.export_chrome_trace(trace_path)
        print(f"chrome trace ({events} events) written to {trace_path}")
    return 0


def _accuracy_cluster(faults: bool):
    """Two identical Myri-10G rails: chunk sizes stay on the sampling
    grid, so fault-free prediction error is pure float noise.  With
    ``--faults`` one rail is silently degraded at t=0 — the stale
    estimator now mispredicts it by a reproducible margin (ablation A8's
    premise, measured instead of eyeballed)."""
    from repro.api import ClusterBuilder, FaultSchedule
    from repro.hardware.topology import CpuTopology

    builder = ClusterBuilder(strategy="hetero_split")
    builder.add_node("node0", topology=CpuTopology.paper_testbed())
    builder.add_node("node1", topology=CpuTopology.paper_testbed())
    builder.add_rail("myri10g", "node0", "node1")
    builder.add_rail("myri10g", "node0", "node1")
    builder.observability()
    if faults:
        builder.faults(
            FaultSchedule(seed=3).degrade(
                "node0.myri10g0", at=0.0, bw_factor=0.5, extra_latency=2.0
            )
        )
    cluster = builder.build()
    a, b = cluster.sessions("node0", "node1")
    for size in ("4K", "16K", "2M", "8M"):
        b.irecv(source="node0")
        a.isend("node1", size)
        cluster.run()
    return cluster


def _cmd_accuracy(
    faults: bool, json_path: Optional[str], fabric: bool = False
) -> int:
    if fabric:
        world, size = _obs_world("flat", 8, "ring")
        cluster = world.cluster
        print(
            "scenario: 8-rank ring alltoall on a flat contended switch "
            f"({size} B per pair) — prediction error includes the port "
            "queueing the contention-blind model misses"
        )
    else:
        cluster = _accuracy_cluster(faults)
        print(
            "scenario: dual identical myri10g rails, pow2 sizes 4K/16K/2M/8M"
            + (" + node0.myri10g0 degraded 2x at t=0" if faults else "")
        )
    print()
    print(cluster.accuracy_report())
    if json_path:
        _dump_json(cluster.accuracy_snapshot(), json_path, "accuracy snapshot")
    return 0


# ---------------------------------------------------------------------- #
# obs report
# ---------------------------------------------------------------------- #


def _obs_world(shape: str, ranks: int, algorithm: str):
    """An obs-on switched world after one profiled alltoall; returns
    ``(world, bytes_per_pair)``."""
    from repro.api.mpi import MpiWorld
    from repro.bench.runners import default_profiles
    from repro.hardware.topology import Fabric

    rails = ("myri10g", "quadrics")
    maker = Fabric.flat if shape == "flat" else Fabric.fat_tree
    world = MpiWorld.create(
        fabric=maker(ranks, rails=rails),
        profiles=default_profiles(rails),
        observability=True,
    )
    # ~2 MiB moved per rank regardless of the world size — the same
    # scaling the COLL bench uses, so numbers stay comparable
    size = max(1, 2 * 1024 * 1024 // max(1, ranks))

    def program(comm):
        yield from comm.alltoall(size, algorithm=algorithm)

    world.spawn_all(program)
    world.run()
    return world, size


def _fabric_utilization(counters, now: float):
    """Per-lane rows from the ``fabric.*`` counters, busiest first."""
    rows = []
    for name in counters:
        if not name.startswith("fabric.") or not name.endswith(".busy_us"):
            continue
        lane = name[len("fabric.") : -len(".busy_us")]
        base = f"fabric.{lane}"
        rows.append(
            {
                "lane": lane,
                "busy_us": counters[name],
                "utilization": counters[name] / now if now > 0 else 0.0,
                "packets": counters.get(f"{base}.packets", 0),
                "queued_bytes": counters.get(f"{base}.queued_bytes", 0),
                "stall_us": counters.get(f"{base}.stall_total_us", 0.0),
                "stalled_packets": counters.get(f"{base}.stalled_packets", 0),
            }
        )
    rows.sort(key=lambda r: (-r["utilization"], r["lane"]))
    return rows


def _cmd_obs_report(
    shape: str, ranks: int, algorithm: str, json_path: Optional[str]
) -> int:
    from repro.obs.collective import measured_hop_table

    world, size = _obs_world(shape, ranks, algorithm)
    cluster = world.cluster
    obs = cluster.obs
    now = cluster.sim.now
    util = _fabric_utilization(obs.metrics.snapshot()["counters"], now)
    coll = obs.collectives.snapshot()
    hop_scale = world.selector().calibrate(
        measured_hop_table(obs.collectives.hops())
    )

    print(
        f"scenario: {ranks}-rank {algorithm} alltoall, {size} B per pair, "
        f"{shape} fabric (myri10g+quadrics)"
    )
    print(f"makespan: {now:.1f} us")
    print()
    print("link/spine utilization (busy / makespan):")
    width = max((len(r["lane"]) for r in util), default=4)
    for r in util:
        bar = "#" * int(round(min(1.0, r["utilization"]) * 30))
        print(
            f"  {r['lane']:<{width}} {r['utilization']:>6.1%} "
            f"|{bar:<30}| {int(r['packets']):>4} pkt  "
            f"stall {r['stall_us']:>8.1f} us"
        )
    print()
    print("critical path (the chain that bounded the makespan):")
    for row in coll["critical_path"]:
        print(
            f"  rank{row['rank']} -> {row['dst']:<7} "
            f"{row['size']:>8} B  post {row['t_post']:>9.1f}  "
            f"done {row['t_complete']:>9.1f}  hop {row['hop_us']:>8.1f} us"
            + (f"  (+{row['gap_us']:.1f} idle)" if row["gap_us"] > 0 else "")
        )
    print()
    print("stragglers (who the collective waited on):")
    for s in coll["stragglers"][:5]:
        print(
            f"  rank{s['rank']:<3} last hop done {s['last_complete_us']:>9.1f} us  "
            f"{s['hops']} hops, {s['bytes']} B, "
            f"{s['hop_time_us']:.1f} us in flight"
        )
    print()
    print("predicted vs measured per-hop (feeds AlgorithmSelector.calibrate):")
    for row in coll["predicted_vs_measured"]:
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "n/a"
        predicted = (
            f"{row['predicted_us']:.1f}"
            if row["predicted_us"] is not None
            else "n/a"
        )
        print(
            f"  {row['size']:>8} B  predicted {predicted:>8} us  "
            f"measured {row['measured_us']:>8.1f} us  ratio {ratio}"
        )
    print(f"  selector hop_scale after calibration: {hop_scale:.2f}")
    if json_path:
        payload = {
            "shape": shape,
            "ranks": ranks,
            "algorithm": algorithm,
            "bytes_per_pair": size,
            "makespan_us": now,
            "utilization": util,
            "critical_path": coll["critical_path"],
            "stragglers": coll["stragglers"],
            "predicted_vs_measured": coll["predicted_vs_measured"],
            "hop_scale": hop_scale,
        }
        _dump_json(payload, json_path, "obs report")
    return 0


def _cmd_chaos(
    seeds_spec: str,
    intensity: Optional[int],
    do_shrink: bool,
    silent: bool = False,
    calibration: bool = False,
    jobs: int = 1,
    artifact_path: Optional[str] = None,
    flight_dump_path: Optional[str] = None,
    shape: str = "paper",
    ranks: int = 8,
) -> int:
    from repro.bench.parallel import soak_artifact
    from repro.faults import soak
    from repro.faults.chaos import DEFAULT_INTENSITY
    from repro.util.parallel import resolve_jobs

    try:
        if "-" in seeds_spec:
            lo, hi = seeds_spec.split("-", 1)
            seeds = range(int(lo), int(hi) + 1)
        else:
            seeds = range(int(seeds_spec))
    except ValueError:
        print(
            f"bad --seeds {seeds_spec!r}: expected a count or LO-HI",
            file=sys.stderr,
        )
        return 2
    workers = resolve_jobs(jobs)
    report = soak(
        seeds,
        intensity=intensity if intensity is not None else DEFAULT_INTENSITY,
        shrink_failures=do_shrink,
        silent=silent,
        calibration=calibration,
        shape=shape,
        ranks=ranks,
        jobs=workers,
    )
    if workers > 1:
        print(f"[{workers} workers]")
    if artifact_path:
        _dump_json(soak_artifact(report), artifact_path, "soak artifact")
    if flight_dump_path:
        dumps = [
            {"seed": s.seed, "dump": s.flight_dump}
            for s in report.scenarios
            if not s.ok
        ]
        _dump_json(dumps, flight_dump_path, "flight-recorder dumps")
    print(report.summary())
    for bad in report.violations:
        assert bad.violation is not None
        print()
        print(bad.violation.report())
    return 1 if report.violations else 0


def _cmd_topology(
    shape: str, nodes: int, rails: str, config_path: Optional[str]
) -> int:
    from repro.bench.runners import default_profiles
    from repro.hardware.topology import Fabric
    from repro.util.errors import ConfigurationError

    try:
        if config_path:
            import json as _json
            from pathlib import Path

            try:
                config = _json.loads(Path(config_path).read_text())
            except (OSError, _json.JSONDecodeError) as exc:
                print(f"cannot read {config_path}: {exc}", file=sys.stderr)
                return 2
            spec = config.get("fabric")
            if spec is None:
                print(
                    f"{config_path} has no 'fabric' section "
                    "(explicit nodes+rails configs have no fabric "
                    "description to draw)",
                    file=sys.stderr,
                )
                return 2
            fabric = Fabric.from_dict(spec)
        else:
            rail_tuple = tuple(r.strip() for r in rails.split(",") if r.strip())
            maker = {
                "paper": lambda: Fabric.paper_testbed(rails=rail_tuple),
                "full_mesh": lambda: Fabric.full_mesh(nodes, rails=rail_tuple),
                "flat": lambda: Fabric.flat(nodes, rails=rail_tuple),
                "fat_tree": lambda: Fabric.fat_tree(nodes, rails=rail_tuple),
            }[shape]
            fabric = maker()
        try:
            profiles = default_profiles(fabric.technologies).estimators
        except (ConfigurationError, KeyError):
            profiles = None  # unknown driver: describe without rates
        print(fabric.describe(profiles))
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code (0 ok, 2 usage error)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(
                args.experiment,
                csv_path=args.csv,
                chart=args.chart,
                json_path=args.json,
            )
        if args.command == "sweep":
            return _cmd_sweep(
                args.sizes, args.strategies, args.metric, args.rails,
                jobs=args.jobs,
            )
        if args.command == "metrics":
            return _cmd_metrics(args.faults, args.json, args.trace, args.fabric)
        if args.command == "accuracy":
            return _cmd_accuracy(args.faults, args.json, args.fabric)
        if args.command == "obs":
            return _cmd_obs_report(
                args.shape, args.ranks, args.algorithm, args.json
            )
        if args.command == "chaos":
            return _cmd_chaos(
                args.seeds,
                args.intensity,
                args.shrink,
                silent=args.silent,
                calibration=args.calibration,
                jobs=args.jobs,
                artifact_path=args.artifact,
                flight_dump_path=args.flight_dump,
                shape=args.shape,
                ranks=args.ranks,
            )
        if args.command == "topology":
            return _cmd_topology(
                args.shape, args.nodes, args.rails, args.config
            )
    except BrokenPipeError:  # e.g. `... | head` closed the pipe; not an error
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
