"""TCP/Gigabit-Ethernet driver.

The commodity fallback rail in NewMadeleine's driver set (§III-A).
Used by the heterogeneous-rail example and ablations: a rail an order of
magnitude slower than the HPC rails, which makes split-ratio asymmetry
dramatic.  No gather/scatter — aggregation pays a host memcpy — and much
larger fixed costs (kernel socket path).

Calibrated to era-typical GigE: ≈ 25 µs one-way latency, ≈ 112 MB/s
large-message bandwidth.
"""

from __future__ import annotations

from repro.networks.drivers.base import Driver
from repro.networks.profile import NetworkProfile
from repro.util.units import KiB


class TcpDriver(Driver):
    """Kernel TCP over GigE: message passing, no gather/scatter."""

    technology = "tcp"

    @classmethod
    def default_profile(cls) -> NetworkProfile:
        return NetworkProfile(
            name=cls.technology,
            wire_latency=22.0,
            pio_rate=900.0,      # socket write() copy path
            recv_copy_rate=900.0,
            pio_setup=1.5,
            recv_setup=1.5,
            post_overhead=2.0,
            poll_detect=3.0,
            dma_rate=118.0,      # wire-limited ~112 MB/s
            rdv_setup=2.0,
            eager_limit=32 * KiB,
            gather_scatter=False,
            max_aggregation=32 * KiB,
            dma_ramp_us=200.0,  # slow-start-like warm-up
            dma_ramp_bytes=256 * KiB,
            eager_ramp_us=20.0,
            eager_ramp_bytes=16 * KiB,
        )
