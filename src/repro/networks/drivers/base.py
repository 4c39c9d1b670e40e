"""Driver abstraction: what the strategy layer may ask of a network.

The paper (§II-B) lists the "actual properties" a strategy should know
about each network: the communication paradigm (message passing vs RDMA),
the availability of gather/scatter operations, and — most valuably — the
sampled ability to predict transfer durations.  The first two are static
capabilities exposed here; the third comes from
:mod:`repro.core.sampling`, which *measures* the driver rather than
trusting vendor figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.networks.profile import NetworkProfile, Paradigm
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class DriverCapabilities:
    """Static per-driver facts the optimizer may branch on."""

    paradigm: Paradigm
    gather_scatter: bool
    eager_limit: int
    max_aggregation: int


class Driver:
    """Base class for network drivers.

    A driver instance is *per NIC* in spirit but stateless in practice, so
    sharing one instance between the two endpoints of a rail is fine and
    what :class:`~repro.api.cluster.ClusterBuilder` does.
    """

    #: subclasses set this to their technology name
    technology: str = "abstract"

    def __init__(self, profile: Optional[NetworkProfile] = None) -> None:
        self.profile = profile if profile is not None else self.default_profile()
        if self.profile.name != self.technology:
            raise ConfigurationError(
                f"profile {self.profile.name!r} mounted on {self.technology!r} driver"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.technology})>"

    @classmethod
    def default_profile(cls) -> NetworkProfile:
        """The calibrated cost model for this technology."""
        raise NotImplementedError

    def capabilities(self) -> DriverCapabilities:
        return DriverCapabilities(
            paradigm=self.profile.paradigm,
            gather_scatter=self.profile.gather_scatter,
            eager_limit=self.profile.eager_limit,
            max_aggregation=self.profile.max_aggregation,
        )

    # ------------------------------------------------------------------ #
    # aggregation cost model
    # ------------------------------------------------------------------ #

    def aggregation_cpu_cost(self, sizes: Sequence[int], memcpy_rate: float) -> float:
        """CPU cost (µs) of building one eager packet from ``sizes`` segments.

        With gather/scatter hardware the driver sends straight from the
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
        if not self.profile.gather_scatter:
            cost += sum(sizes) / memcpy_rate
        return cost

    def fits_aggregation(self, total: int) -> bool:
        """Whether an aggregated packet of ``total`` bytes is acceptable."""
        return 0 <= total <= min(self.profile.max_aggregation, self.profile.eager_limit)
