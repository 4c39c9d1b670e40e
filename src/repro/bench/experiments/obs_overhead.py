"""OBS — observability overhead: enabled hooks must not move simulated time.

The PR 3 guard scenario.  The same healthy burst workload as ``DEG``'s
baseline runs two ways, once each:

* **off** — observability not built (the default; exactly PR 2's path);
* **on** — full tracing + metrics + accuracy.

The two bandwidth columns must be identical: telemetry is purely
passive.  ``BENCH_PR3.json`` holds the committed numbers.  The
wall-clock cost of the obs bundle is measured by the end-to-end
benchmark's ``moe_fat_tree_obs`` workload (``benchmarks/e2e``).
"""

from __future__ import annotations

from typing import List

from repro.bench.experiments.degraded import BURST, SIZES
from repro.bench.runners import default_profiles
from repro.bench.series import Series, SweepResult
from repro.util.errors import ConfigurationError
from repro.util.units import bytes_per_us_to_mbps


def _measure(size: int, observability: bool) -> float:
    """Aggregate MB/s of one healthy BURST at ``size`` bytes."""
    from repro.api.cluster import ClusterBuilder

    builder = ClusterBuilder.paper_testbed(strategy="hetero_split").sampling(
        profiles=default_profiles(("myri10g", "quadrics"))
    )
    if observability:
        builder.observability()
    cluster = builder.build()
    sender, receiver = cluster.sessions("node0", "node1")
    messages = []
    for i in range(BURST):
        receiver.irecv(tag=i)
        messages.append(sender.isend("node1", size, tag=i))
    cluster.run()
    if any(m.t_complete is None for m in messages):
        raise ConfigurationError(f"message incomplete at {size}B")
    elapsed = max(m.t_complete for m in messages) - min(
        m.t_post for m in messages
    )
    return bytes_per_us_to_mbps(sum(m.size for m in messages) / elapsed)


def run() -> SweepResult:
    """Observability overhead: healthy burst throughput, hooks off vs on."""
    off: List[float] = []
    on: List[float] = []
    for size in SIZES:
        off.append(_measure(size, observability=False))
        on.append(_measure(size, observability=True))
    return SweepResult(
        title=(
            f"OBS: {BURST}-message healthy burst, observability off vs on "
            "(identical columns = zero simulated overhead)"
        ),
        x_sizes=list(SIZES),
        series=[
            Series(label="obs off", values=off),
            Series(label="obs on", values=on),
        ],
        y_label="aggregate bandwidth, MB/s",
    )
