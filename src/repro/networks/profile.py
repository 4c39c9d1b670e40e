"""Per-technology cost models (the numbers the simulator charges).

A :class:`NetworkProfile` is the ground truth the simulator executes; the
*sampling* subsystem never reads these numbers directly — it measures them
through ping-pongs, exactly as the real NewMadeleine samples real NICs
(paper §III-C).  Keeping ground truth and sampled knowledge separate is
what lets the test suite quantify estimator error.

A rail technology *is* its profile: NewMadeleine ships one driver per
network (MX/Myri-10G, Elan/QsNetII, Verbs/InfiniBand, TCP/GigE, paper
§III-A), and every static property §II-B lists (eager and aggregation
limits, gather/scatter) is a profile field.  :data:`RAIL_PROFILES` holds
the four calibrated technologies; :func:`rail_profile` looks one up.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Dict, Sequence

from repro.util.errors import ConfigurationError
from repro.util.units import KiB


@dataclass(frozen=True)
class NetworkProfile:
    """Cost model for one network technology.

    All times are µs, all rates are bytes/µs, all sizes are bytes.

    Attributes
    ----------
    name:
        Technology label, e.g. ``"myri10g"``.
    wire_latency:
        One-way propagation + NIC pipeline latency for the last byte.
    pio_rate:
        Host→NIC PIO copy throughput; the *CPU-consuming* part of an eager
        send.  The issuing core is occupied for ``size / pio_rate``.
    recv_copy_rate:
        NIC→host copy throughput on the receive side (occupies the
        polling core).
    pio_setup:
        Fixed CPU cost to start a PIO copy (doorbell, descriptor).
    recv_setup:
        Fixed CPU cost to start the receive-side copy.
    post_overhead:
        Fixed CPU cost of posting any request through the driver
        (library + driver call path).
    poll_detect:
        Fixed CPU cost for the receiver's progress engine to detect and
        dispatch one incoming event.
    dma_rate:
        NIC DMA throughput for rendezvous data (does not occupy the CPU).
    rdv_setup:
        Fixed CPU cost to program one DMA descriptor.
    eager_limit:
        Largest payload the driver accepts as a single eager packet.
    gather_scatter:
        Whether the driver can aggregate from scattered buffers without an
        intermediate copy (paper §II-B lists this capability).
    max_aggregation:
        Largest aggregated eager packet the driver will build.
    """

    name: str
    wire_latency: float
    pio_rate: float
    recv_copy_rate: float
    pio_setup: float
    recv_setup: float
    post_overhead: float
    poll_detect: float
    dma_rate: float
    rdv_setup: float
    eager_limit: int
    gather_scatter: bool = True
    max_aggregation: int = 64 * 1024
    #: saturating warm-up penalties: real drivers under-perform on small
    #: transfers (pipelining, doorbell batching) before reaching the
    #: plateau rate.  ``ramp_us * (1 - exp(-size/ramp_bytes))`` µs are
    #: added — ~0 for tiny transfers, the full ramp at large ones.  This
    #: non-linearity is what makes *sampling at many sizes* worthwhile
    #: (the paper's §II-A point against two-parameter vendor models).
    dma_ramp_us: float = 0.0
    dma_ramp_bytes: int = 256 * 1024
    eager_ramp_us: float = 0.0
    eager_ramp_bytes: int = 16 * 1024

    def __post_init__(self) -> None:
        for field_name in _NUMERIC_FIELDS:
            value = getattr(self, field_name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{self.name}: {field_name} must be a number, got {value!r}"
                )
        for field_name in ("pio_rate", "recv_copy_rate", "dma_rate"):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"{self.name}: {field_name} must be > 0")
        for field_name in (
            "wire_latency",
            "pio_setup",
            "recv_setup",
            "post_overhead",
            "poll_detect",
            "rdv_setup",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{self.name}: {field_name} must be >= 0")
        if self.eager_limit < 1:
            raise ConfigurationError(f"{self.name}: eager_limit must be >= 1")
        if self.dma_ramp_us < 0 or self.eager_ramp_us < 0:
            raise ConfigurationError(f"{self.name}: ramp penalties must be >= 0")
        if self.dma_ramp_bytes < 1 or self.eager_ramp_bytes < 1:
            raise ConfigurationError(f"{self.name}: ramp scales must be >= 1 byte")

    @staticmethod
    def _ramp(size: int, ramp_us: float, ramp_bytes: int) -> float:
        if ramp_us == 0.0 or size <= 0:
            return 0.0
        return ramp_us * (1.0 - math.exp(-size / ramp_bytes))

    def pio_copy_time(self, size: int) -> float:
        """CPU time of the host→NIC PIO copy alone (setup + streaming +
        warm-up ramp)."""
        self._check(size)
        return (
            self.pio_setup
            + size / self.pio_rate
            + self._ramp(size, self.eager_ramp_us, self.eager_ramp_bytes)
        )

    # ------------------------------------------------------------------ #
    # ground-truth cost queries (used by the simulator, NOT the strategy)
    # ------------------------------------------------------------------ #

    def eager_send_cpu(self, size: int) -> float:
        """CPU time on the sending core for an eager packet."""
        self._check(size)
        return self.post_overhead + self.pio_copy_time(size)

    def eager_recv_cpu(self, size: int) -> float:
        """CPU time on the receiving (polling) core for an eager packet."""
        self._check(size)
        return self.poll_detect + self.recv_setup + size / self.recv_copy_rate

    def eager_oneway(self, size: int) -> float:
        """Uncontended one-way eager completion time (both cores free)."""
        return self.eager_send_cpu(size) + self.wire_latency + self.eager_recv_cpu(size)

    def control_send_cpu(self) -> float:
        """CPU time to post a control packet (RDV_REQ / RDV_ACK)."""
        return self.post_overhead

    def control_oneway(self) -> float:
        """Uncontended one-way control-packet time."""
        return self.post_overhead + self.wire_latency + self.poll_detect

    def rdv_send_cpu(self) -> float:
        """CPU time to program a rendezvous DMA (size-independent)."""
        return self.post_overhead + self.rdv_setup

    def rdv_nic_time(self, size: int) -> float:
        """NIC occupancy for a rendezvous data transfer."""
        self._check(size)
        return size / self.dma_rate + self._ramp(
            size, self.dma_ramp_us, self.dma_ramp_bytes
        )

    def rdv_data_oneway(self, size: int) -> float:
        """Uncontended one-way rendezvous *data* time (handshake excluded)."""
        return (
            self.rdv_send_cpu()
            + self.rdv_nic_time(size)
            + self.wire_latency
            + self.poll_detect
        )

    def rdv_oneway(self, size: int) -> float:
        """Uncontended one-way rendezvous time *including* the handshake."""
        return 2 * self.control_oneway() + self.rdv_data_oneway(size)

    def aggregation_cpu_cost(self, sizes: Sequence[int], memcpy_rate: float) -> float:
        """CPU cost (µs) of building one eager packet from ``sizes`` segments.

        With gather/scatter hardware the NIC sends straight from the
        scattered application buffers: only a small per-segment descriptor
        cost.  Without it (TCP), the segments must first be packed into a
        contiguous staging buffer at host-memcpy speed.
        """
        if not sizes:
            return 0.0
        if min(sizes) < 0:
            raise ConfigurationError(f"negative segment size in {sizes}")
        per_segment = 0.05  # descriptor/iovec entry bookkeeping
        cost = per_segment * len(sizes)
        if not self.gather_scatter:
            cost += sum(sizes) / memcpy_rate
        return cost

    def with_overrides(self, **kwargs) -> "NetworkProfile":
        """A copy with selected fields replaced (for ablations).  A name
        that is not a field raises :class:`ConfigurationError`."""
        unknown = sorted(set(kwargs) - set(_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"{self.name}: unknown profile field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_FIELDS))}"
            )
        return replace(self, **kwargs)

    @staticmethod
    def _check(size: int) -> None:
        if size < 0:
            raise ConfigurationError(f"negative transfer size: {size}")


#: every field of a profile, and those holding a number (annotated
#: ``float`` or ``int``; this module's annotations are strings)
_FIELDS = tuple(f.name for f in fields(NetworkProfile))
_NUMERIC_FIELDS = tuple(
    f.name for f in fields(NetworkProfile) if f.type in ("float", "int")
)


#: the calibrated rail technologies, by name.  Each comment gives the
#: paper's target where there is one and what the profile computes
#: (``rdv_oneway`` includes the two-control-packet handshake, the data
#: phase is ``rdv_data_oneway``).
RAIL_PROFILES: Dict[str, NetworkProfile] = {
    # MX over Myri-10G: message passing, gather/scatter capable.  Paper
    # §IV: a rendezvous plateau of ≈ 1170 MB/s at 8 MiB (Fig. 8), ≈ 1730
    # µs for a 2 MiB chunk (§IV-A), eager ≈ 60 µs at 64 KiB (Fig. 9).
    # Computed: 1167.4 MB/s at 8 MiB, 1729.3 µs for a 2 MiB rendezvous
    # (1723.3 µs data phase), 66.5 µs for a 64 KiB eager send.
    "myri10g": NetworkProfile(
        name="myri10g",
        wire_latency=1.3,
        pio_rate=2200.0,
        recv_copy_rate=2200.0,
        pio_setup=0.5,
        recv_setup=0.5,
        post_overhead=0.7,
        poll_detect=1.0,
        dma_rate=1228.0,
        rdv_setup=0.5,
        eager_limit=64 * KiB,
        gather_scatter=True,
        max_aggregation=64 * KiB,
        dma_ramp_us=12.0,
        dma_ramp_bytes=256 * KiB,
        eager_ramp_us=3.0,
        eager_ramp_bytes=16 * KiB,
    ),
    # Elan4 over Quadrics QsNetII: RDMA, gather/scatter capable; a lower
    # zero-byte latency than MX but a slower eager byte rate.  Paper §IV:
    # ≈ 837 MB/s at 8 MiB (Fig. 8), ≈ 2400 µs for a 2 MiB chunk, leaving
    # the Myri-10G rail idle ≈ 670 µs under iso-split (§IV-A), eager ≈ 85
    # µs at 64 KiB (Fig. 9).  Computed: 835.8 MB/s at 8 MiB, 2406.5 µs
    # for a 2 MiB rendezvous (2401.5 µs data phase, so a 678 µs idle
    # gap), 89.1 µs for a 64 KiB eager send.
    "quadrics": NetworkProfile(
        name="quadrics",
        wire_latency=0.8,
        pio_rate=1600.0,
        recv_copy_rate=1600.0,
        pio_setup=0.4,
        recv_setup=0.4,
        post_overhead=0.7,
        poll_detect=1.0,
        dma_rate=878.0,
        rdv_setup=0.4,
        eager_limit=64 * KiB,
        gather_scatter=True,
        max_aggregation=64 * KiB,
        dma_ramp_us=10.0,
        dma_ramp_bytes=256 * KiB,
        eager_ramp_us=4.0,
        eager_ramp_bytes=16 * KiB,
    ),
    # OFED Verbs over InfiniBand DDR 4x: RDMA, gather/scatter capable.
    # Not on the paper's testbed; the n-rail ablation (A5) and the
    # switched examples use it.  Era-typical DDR 4x, ≈ 1400 MB/s.
    # Computed: 3.70 µs for a 4 B eager send, 2.80 µs for a control
    # packet, 1425.7 MB/s at 8 MiB.
    "infiniband": NetworkProfile(
        name="infiniband",
        wire_latency=1.0,
        pio_rate=1900.0,
        recv_copy_rate=1900.0,
        pio_setup=0.45,
        recv_setup=0.45,
        post_overhead=0.8,
        poll_detect=1.0,
        dma_rate=1500.0,
        rdv_setup=0.6,
        eager_limit=32 * KiB,
        gather_scatter=True,
        max_aggregation=32 * KiB,
        dma_ramp_us=10.0,
        dma_ramp_bytes=256 * KiB,
        eager_ramp_us=3.0,
        eager_ramp_bytes=16 * KiB,
    ),
    # Kernel TCP over GigE: the commodity fallback rail, an order of
    # magnitude slower than the HPC rails, with the large fixed costs of
    # the kernel socket path and no gather/scatter (aggregation pays a
    # host memcpy).  Era-typical GigE, ≈ 112 MB/s.  Computed: 30.0 µs
    # for a 4 B eager send, 27.0 µs for a control packet, 112.1 MB/s at
    # 8 MiB.
    "tcp": NetworkProfile(
        name="tcp",
        wire_latency=22.0,
        pio_rate=900.0,  # socket write() copy path
        recv_copy_rate=900.0,
        pio_setup=1.5,
        recv_setup=1.5,
        post_overhead=2.0,
        poll_detect=3.0,
        dma_rate=118.0,  # wire-limited ~112 MB/s
        rdv_setup=2.0,
        eager_limit=32 * KiB,
        gather_scatter=False,
        max_aggregation=32 * KiB,
        dma_ramp_us=200.0,  # slow-start-like warm-up
        dma_ramp_bytes=256 * KiB,
        eager_ramp_us=20.0,
        eager_ramp_bytes=16 * KiB,
    ),
}


def rail_profile(technology: str, **overrides) -> NetworkProfile:
    """The calibrated profile of ``technology`` (case ignored), with
    ``overrides`` replacing profile fields (the ablation benches'
    ``rail_profile("myri10g", dma_rate=...)``)."""
    try:
        profile = RAIL_PROFILES[str(technology).lower()]
    except KeyError:
        known = ", ".join(sorted(RAIL_PROFILES))
        raise ConfigurationError(
            f"unknown rail technology {technology!r}; known: {known}"
        ) from None
    return profile.with_overrides(**overrides) if overrides else profile
