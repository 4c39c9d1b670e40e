"""Verbs/InfiniBand DDR driver.

Not part of the paper's two-rail evaluation testbed, but NewMadeleine
ships a Verbs driver (§III-A) and the n-rail ablation
(`tests/paper/test_ablation.py`, A5) uses it as a third/fourth rail.
Calibrated to generic DDR 4x figures of the era: ≈ 1.9 µs latency,
≈ 1400 MB/s large-message bandwidth.
"""

from __future__ import annotations

from repro.networks.drivers.base import Driver
from repro.networks.profile import NetworkProfile, Paradigm
from repro.util.units import KiB


class VerbsDriver(Driver):
    """OFED Verbs over InfiniBand DDR 4x: RDMA, gather/scatter capable."""

    technology = "infiniband"

    @classmethod
    def default_profile(cls) -> NetworkProfile:
        return NetworkProfile(
            name=cls.technology,
            paradigm=Paradigm.RDMA,
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
        )
