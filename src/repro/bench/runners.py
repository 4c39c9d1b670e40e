"""Measurement runners: build testbeds, time one-way transfers, sweep sizes.

Clusters are rebuilt per measurement (cheap — the simulator is pure
Python objects) so every point starts from a quiescent system, and the
sampling pass is computed once per rail set and memoized.
"""

from __future__ import annotations

from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.api.cluster import Cluster, ClusterBuilder, StrategySpec
from repro.bench.series import Series, SweepResult
from repro.core.packets import Message
from repro.core.sampling import ProfileStore
from repro.networks.drivers import make_driver
from repro.util.errors import ConfigurationError
from repro.util.parallel import parallel_map


def repo_root() -> Path:
    """Best-effort repository root (where the ``BENCH_PR*.json`` live)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


def default_profiles(rails: Sequence[str] = ("myri10g", "quadrics")) -> ProfileStore:
    """Sampled profiles for a rail set, computed once per process.

    Keyed on ``tuple(rails)``: the default and the same rails passed
    explicitly share one sampling pass and one store.
    """
    return _sampled_profiles(tuple(rails))


@lru_cache(maxsize=None)
def _sampled_profiles(rails: Tuple[str, ...]) -> ProfileStore:
    return ProfileStore.sample_drivers([make_driver(r) for r in rails])


def build_paper_cluster(
    strategy: StrategySpec,
    rails: Tuple[str, ...] = ("myri10g", "quadrics"),
    profiles: Optional[ProfileStore] = None,
) -> Cluster:
    """The §IV testbed with memoized sampling."""
    return (
        ClusterBuilder.paper_testbed(strategy=strategy, rails=rails)
        .sampling(profiles=profiles or default_profiles(rails))
        .build()
    )


def measure_oneway(
    cluster: Cluster,
    size: int,
    tag: int = 0,
    warmup: int = 0,
) -> Message:
    """One one-way transfer node0 → node1; returns the completed message.

    ``warmup`` sends (and completes) that many identical messages first —
    a no-op for timing in the deterministic simulator, but it exercises
    steady-state code paths exactly like the real benchmarks do.
    """
    a, b = cluster.session("node0"), cluster.session("node1")
    for w in range(warmup):
        b.irecv(tag=1000 + w)
        a.isend("node1", size, tag=1000 + w)
        cluster.run()
    b.irecv(tag=tag)
    msg = a.isend("node1", size, tag=tag)
    cluster.run()
    if msg.latency is None:
        raise ConfigurationError(
            f"{size}B transfer under {cluster.engine('node0').strategy.name} "
            "never completed"
        )
    return msg


def measure_pair_completion(
    cluster: Cluster,
    seg_size: int,
) -> Tuple[float, Message, Message]:
    """Two same-instant segments node0 → node1 (the Fig. 3 workload).

    Returns (completion of the later segment, msg1, msg2).
    """
    a, b = cluster.session("node0"), cluster.session("node1")
    b.irecv(tag=1)
    b.irecv(tag=2)
    m1 = a.isend("node1", seg_size, tag=1)
    m2 = a.isend("node1", seg_size, tag=2)
    cluster.run()
    for m in (m1, m2):
        if m.t_complete is None:
            raise ConfigurationError(f"segment {m!r} never completed")
    return max(m1.t_complete, m2.t_complete) - m1.t_post, m1, m2


def _sweep_cell(
    rails: Tuple[str, ...],
    metric: str,
    profiles: Optional[ProfileStore],
    cell: Tuple[Union[StrategySpec, Callable[[], StrategySpec]], int],
) -> float:
    """Measure one (strategy, size) cell of :func:`sweep_oneway` on a
    fresh cluster (module-level, so pool workers can unpickle it)."""
    from repro.util.units import bytes_per_us_to_mbps

    spec, size = cell
    resolved = spec() if callable(spec) and not isinstance(spec, type) else spec
    cluster = build_paper_cluster(resolved, rails=rails, profiles=profiles)
    msg = measure_oneway(cluster, size)
    if metric == "latency":
        return msg.latency
    return bytes_per_us_to_mbps(size / msg.latency)


def sweep_oneway(
    title: str,
    sizes: Sequence[int],
    strategies: Dict[str, Union[StrategySpec, Callable[[], StrategySpec]]],
    metric: str = "latency",
    rails: Tuple[str, ...] = ("myri10g", "quadrics"),
    profiles: Optional[ProfileStore] = None,
    jobs: Optional[int] = 1,
) -> SweepResult:
    """Measure every (strategy, size) pair on a fresh cluster.

    ``metric``: ``"latency"`` (µs one-way) or ``"bandwidth"`` (MB/s).
    Strategy values may be specs or zero-arg factories (fresh per point).

    ``jobs`` fans the cells out over that many processes
    (:func:`repro.util.parallel.parallel_map`; ``0`` = one per CPU).
    Cells come back in the serial (strategy × size) order, so tables and
    CSVs are identical for any ``jobs``.  With ``jobs > 1`` the specs
    (and ``profiles``) must pickle: strategy names or classes, not
    closures.
    """
    if metric not in ("latency", "bandwidth"):
        raise ConfigurationError(f"unknown metric {metric!r}")
    labels = list(strategies)
    cells = [(strategies[label], size) for label in labels for size in sizes]
    values = parallel_map(
        partial(_sweep_cell, tuple(rails), metric, profiles), cells, jobs
    )
    n = len(sizes)
    series = [
        Series(label=label, values=values[i * n : (i + 1) * n])
        for i, label in enumerate(labels)
    ]
    y_label = "one-way latency, us" if metric == "latency" else "bandwidth, MB/s"
    return SweepResult(
        title=title, x_sizes=list(sizes), series=series, y_label=y_label
    )
