"""Per-technology cost models (the numbers the simulator charges).

A :class:`NetworkProfile` is the ground truth the simulator executes; the
*sampling* subsystem never reads these numbers directly — it measures them
through ping-pongs, exactly as the real NewMadeleine samples real NICs
(paper §III-C).  Keeping ground truth and sampled knowledge separate is
what lets the test suite quantify estimator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.util.errors import ConfigurationError


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

    def with_overrides(self, **kwargs) -> "NetworkProfile":
        """A copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)

    @staticmethod
    def _check(size: int) -> None:
        if size < 0:
            raise ConfigurationError(f"negative transfer size: {size}")
