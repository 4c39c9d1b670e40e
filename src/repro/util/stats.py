"""The percentile helper shared by the sampler and the bench harness.

Plain :mod:`math`: the library imports numpy only in the noisy sampler
of ablation A9 (:class:`repro.core.sampling.NoisySampler`).
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = (len(s) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return s[lo]
    frac = pos - lo
    # s[lo] + delta*frac (not the two-sided lerp) stays exactly within
    # [s[lo], s[hi]] even under floating-point rounding.
    return s[lo] + (s[hi] - s[lo]) * frac

