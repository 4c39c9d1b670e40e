"""Workload generators and a stream runner for multi-message experiments.

The paper's figures use ping-pongs; its *motivation* (§I/§II-A) is about
streams of application messages multiplexed over the multirail network.
These generators produce deterministic message schedules — (post time,
size, tag) triples — and :func:`run_stream` drives them through a
cluster, reporting aggregate throughput and per-message latency.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple

from repro.api.cluster import Cluster
from repro.core.packets import Message
from repro.util.errors import ConfigurationError
from repro.util.stats import percentile
from repro.util.units import bytes_per_us_to_mbps

#: one scheduled send: (post time µs, size bytes, tag)
ScheduledSend = Tuple[float, int, int]


def uniform_stream(
    count: int, size: int, interval: float = 0.0, start: float = 0.0
) -> List[ScheduledSend]:
    """``count`` equal messages, ``interval`` µs apart (0 = back-to-back)."""
    if count < 1:
        raise ConfigurationError(f"stream needs >= 1 message, got {count}")
    if interval < 0 or start < 0:
        raise ConfigurationError("negative time in stream spec")
    return [(start + i * interval, size, i) for i in range(count)]


def bursty_stream(
    bursts: int, per_burst: int, size: int, burst_gap: float
) -> List[ScheduledSend]:
    """``bursts`` groups of ``per_burst`` simultaneous messages."""
    if bursts < 1 or per_burst < 1:
        raise ConfigurationError("bursty stream needs >= 1 burst and message")
    if burst_gap < 0:
        raise ConfigurationError("negative burst gap")
    sends: List[ScheduledSend] = []
    tag = 0
    for b in range(bursts):
        for _ in range(per_burst):
            sends.append((b * burst_gap, size, tag))
            tag += 1
    return sends


def mixed_stream(sizes: Sequence[int], interval: float = 0.0) -> List[ScheduledSend]:
    """One message per entry of ``sizes``, ``interval`` µs apart."""
    if not sizes:
        raise ConfigurationError("mixed stream needs at least one size")
    return [(i * interval, s, i) for i, s in enumerate(sizes)]


def random_stream(
    count: int,
    size_range: Tuple[int, int],
    mean_interval: float,
    seed: int = 0,
) -> List[ScheduledSend]:
    """Deterministic pseudo-random stream (log-uniform sizes, exponential
    inter-arrival times) — the property-test workload."""
    if count < 1:
        raise ConfigurationError("random stream needs >= 1 message")
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise ConfigurationError(f"bad size range {size_range}")
    if mean_interval < 0:
        raise ConfigurationError(f"negative mean interval {mean_interval}")
    rng = random.Random(seed)
    log_lo, log_hi = math.log(lo), math.log(hi)
    sizes = [int(math.exp(rng.uniform(log_lo, log_hi))) for _ in range(count)]
    gaps = [0.0] * count
    if mean_interval > 0:
        gaps = [rng.expovariate(1.0 / mean_interval) for _ in range(count)]
    times = accumulate(gaps)
    return [(t, max(lo, s), i) for i, (t, s) in enumerate(zip(times, sizes))]


@dataclass
class StreamResult:
    """Outcome of one stream run."""

    messages: List[Message]
    total_bytes: int
    makespan_us: float          # first post -> last completion
    latencies_us: List[float] = field(default_factory=list)

    @property
    def throughput_mbps(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return bytes_per_us_to_mbps(self.total_bytes / self.makespan_us)

    @property
    def message_rate_per_s(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return len(self.messages) / (self.makespan_us * 1e-6)

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies_us, q)

    @property
    def mean_latency_us(self) -> float:
        return sum(self.latencies_us) / len(self.latencies_us)


def run_stream(
    cluster: Cluster,
    sends: Iterable[ScheduledSend],
    src: str = "node0",
    dst: str = "node1",
) -> StreamResult:
    """Post every scheduled send at its virtual time and drain the cluster."""
    sends = sorted(sends)
    if not sends:
        raise ConfigurationError("empty stream")
    src_session = cluster.session(src)
    dst_session = cluster.session(dst)
    messages: List[Message] = []

    for t_post, size, tag in sends:
        dst_session.irecv(source=src, tag=tag)

        def do_send(size=size, tag=tag):
            messages.append(src_session.isend(dst, size, tag=tag))

        cluster.sim.schedule_at(t_post, do_send)
    cluster.run()

    incomplete = [m for m in messages if m.t_complete is None]
    if incomplete:
        raise ConfigurationError(f"{len(incomplete)} stream messages never completed")
    first_post = min(m.t_post for m in messages)
    last_done = max(m.t_complete for m in messages)
    return StreamResult(
        messages=messages,
        total_bytes=sum(m.size for m in messages),
        makespan_us=last_done - first_post,
        latencies_us=[m.latency for m in messages],
    )
