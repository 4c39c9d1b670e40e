"""Driver abstraction: one technology's cost model and aggregation cost.

The paper (§II-B) lists the "actual properties" a strategy should know
about each network.  The static ones this model uses — eager and
aggregation limits, gather/scatter availability — are fields of the
driver's :class:`~repro.networks.profile.NetworkProfile`; gather/scatter
availability also prices an aggregated packet here
(:meth:`Driver.aggregation_cpu_cost`).  The most valuable one, the
ability to predict transfer durations, comes from
:mod:`repro.core.sampling`, which *measures* the driver rather than
trusting vendor figures.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.networks.profile import NetworkProfile
from repro.util.errors import ConfigurationError


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
