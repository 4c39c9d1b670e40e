"""Transfer-time estimation from sampled measurements.

Paper §III-C, verbatim: *"First, the strategy accesses the results of the
sampling measurements through structures initialized at the launch of
NewMadeleine.  Second, the sampled sizes that are the closest to the
message size are retrieved, for instance using a logarithm in the case of
power of 2 samples.  Finally, the estimated transfer time is computed by
the mean of a linear interpolation."*

:class:`SampleTable` implements exactly that: log2-indexed bracket lookup
plus linear interpolation, with linear extrapolation beyond the sampled
range.  :class:`NicEstimator` bundles the per-NIC tables (eager curve,
DMA curve, control-packet cost) and derives the rendezvous threshold from
their crossover — the paper notes sampling "can also be used to determine
other parameters such as rendezvous threshold".

Performance notes
-----------------
``SampleTable.__call__`` is the innermost call of every split decision
(40–60 invocations per planned message), so lookups are pure Python over
plain lists — numpy scalar indexing costs ~20× a list index.  The numpy
``sizes``/``times`` arrays are kept for validation at construction and
for external analysis code; the test suite checks the list path
bitwise against the original numpy formula.

:class:`NicEstimator` is immutable after construction (enforced via
``__setattr__``), which makes its derived quantities — ``rdv_threshold``,
``plateau_bandwidth``, per-``(size, mode)`` transfer times — safe to
memoize forever.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.packets import TransferMode
from repro.util.errors import SamplingError

#: cap on the per-estimator (size, mode) memo before it is reset wholesale
_TRANSFER_MEMO_LIMIT = 65_536


class SampleTable:
    """A sampled (size → time) curve with log-indexed interpolation.

    Sizes must be strictly increasing; powers of two enable the O(1)
    logarithm lookup of the paper, but any strictly increasing grid works
    (binary search fallback).
    """

    def __init__(self, sizes: Sequence[int], times: Sequence[float]) -> None:
        if len(sizes) != len(times):
            raise SamplingError(
                f"{len(sizes)} sizes vs {len(times)} times"
            )
        if len(sizes) < 2:
            raise SamplingError("a sample table needs at least two points")
        self.sizes = np.asarray(sizes, dtype=np.float64)
        self.times = np.asarray(times, dtype=np.float64)
        if np.any(np.diff(self.sizes) <= 0):
            raise SamplingError(f"sizes not strictly increasing: {sizes}")
        if np.any(self.times < 0):
            raise SamplingError("negative sampled time")
        # Detect the pure power-of-two grid for the O(1) log path.
        logs = np.log2(self.sizes)
        self._pow2 = bool(
            np.allclose(logs, np.round(logs)) and np.all(np.diff(np.round(logs)) == 1)
        )
        self._log0 = int(round(logs[0])) if self._pow2 else 0
        # Scalar fast path: plain Python lists (and per-segment slopes for
        # the extrapolation in :meth:`inverse`).  Indexing a list of floats
        # avoids the numpy-scalar boxing that dominates per-call cost.
        self._sizes_list: List[float] = self.sizes.tolist()
        self._times_list: List[float] = self.times.tolist()
        self._last_segment = len(self._sizes_list) - 2
        self._slopes: List[float] = [
            (self._times_list[i + 1] - self._times_list[i])
            / (self._sizes_list[i + 1] - self._sizes_list[i])
            for i in range(len(self._sizes_list) - 1)
        ]

    def __len__(self) -> int:
        return len(self._sizes_list)

    @property
    def min_size(self) -> int:
        return int(self._sizes_list[0])

    @property
    def max_size(self) -> int:
        return int(self._sizes_list[-1])

    def _bracket(self, size: float) -> int:
        """Index ``i`` such that sizes[i] <= size < sizes[i+1] (clamped)."""
        if self._pow2:
            i = int(math.floor(math.log2(size))) - self._log0 if size > 0 else 0
        else:
            i = bisect_right(self._sizes_list, size) - 1
        last = self._last_segment
        return 0 if i < 0 else (last if i > last else i)

    def __call__(self, size: float) -> float:
        """Estimated time for ``size`` bytes (linear inter-/extrapolation).

        Results are clamped to be non-negative (extrapolating the first
        segment below the smallest sample could otherwise go negative).
        """
        if size < 0:
            raise SamplingError(f"negative size: {size}")
        i = self._bracket(size if size > 1.0 else 1.0)
        s0 = self._sizes_list[i]
        s1 = self._sizes_list[i + 1]
        t0 = self._times_list[i]
        t1 = self._times_list[i + 1]
        t = t0 + (t1 - t0) * (size - s0) / (s1 - s0)
        return t if t > 0.0 else 0.0

    def inverse(self, time: float) -> float:
        """Largest size transferable within ``time`` (for waterfilling).

        Requires a non-decreasing curve.  Returns 0 when even the
        extrapolated zero-size transfer exceeds ``time``, and extrapolates
        past the largest sample using the final segment's rate.
        """
        times = self._times_list
        sizes = self._sizes_list
        if time <= self(0):
            return 0.0
        if time >= times[-1]:
            # extrapolate along the last segment
            slope = self._slopes[-1]
            if slope <= 0:
                return sizes[-1]
            return sizes[-1] + (time - times[-1]) / slope
        i = bisect_right(times, time) - 1
        last = self._last_segment
        i = 0 if i < 0 else (last if i > last else i)
        t0, t1 = times[i], times[i + 1]
        s0, s1 = sizes[i], sizes[i + 1]
        if t1 == t0:
            return s1
        return s0 + (s1 - s0) * (time - t0) / (t1 - t0)

    def blend(self, fresh: "SampleTable", weight: float) -> "SampleTable":
        """Exponentially blend a fresh curve into this one.

        Each grid point of *this* table moves ``weight`` of the way
        towards the fresh curve (evaluated at the same size, so the
        grids need not match)::

            t_new[i] = (1 - weight) * t_old[i] + weight * fresh(size[i])

        The result is forced monotonic non-decreasing with a running
        max: interpolating two independently-noisy curves can invert a
        band edge (t[i+1] < t[i]), which would break ``inverse`` (the
        waterfill solver) and let the dichotomy prefer *larger* chunks
        on a slower rail.  The clamp only ever raises points, so blended
        estimates stay conservative.
        """
        if not 0.0 <= weight <= 1.0:
            raise SamplingError(f"blend weight {weight} outside [0, 1]")
        keep = 1.0 - weight
        times = [
            keep * t + weight * fresh(s)
            for s, t in zip(self._sizes_list, self._times_list)
        ]
        running = 0.0
        for i, t in enumerate(times):
            if t < running:
                times[i] = running
            else:
                running = t
        return SampleTable([int(s) for s in self._sizes_list], times)

    def as_dict(self) -> Dict[str, List[float]]:
        return {"sizes": self.sizes.tolist(), "times": self.times.tolist()}

    @classmethod
    def from_dict(cls, d: Dict[str, List[float]]) -> "SampleTable":
        return cls([int(s) for s in d["sizes"]], d["times"])


class NicEstimator:
    """Everything the strategy knows about one NIC, learned by sampling.

    Immutable after construction: attribute assignment raises, which is
    what licenses the internal memoization (``rdv_threshold``,
    ``plateau_bandwidth`` and the per-``(size, mode)`` transfer-time
    cache are computed at most once and never invalidated).

    Parameters
    ----------
    name:
        Technology/NIC label (matches ``Nic.profile.name``).
    eager:
        Sampled one-way eager times (up to the driver's eager limit).
    dma:
        Sampled one-way rendezvous *data* times (handshake excluded).
    control_oneway:
        Measured one-way control-packet time.
    eager_limit:
        Driver capability bound on eager sizes.
    """

    def __init__(
        self,
        name: str,
        eager: SampleTable,
        dma: SampleTable,
        control_oneway: float,
        eager_limit: int,
    ) -> None:
        if control_oneway < 0:
            raise SamplingError(f"negative control time: {control_oneway}")
        self.name = name
        self.eager = eager
        self.dma = dma
        self.control_oneway = control_oneway
        self.eager_limit = eager_limit
        # Memoized derivations (estimators are immutable, so these never
        # need invalidation).  The transfer memo is LRU-style in spirit:
        # bounded, reset wholesale on overflow — sweeps reuse a few dozen
        # distinct sizes, so the bound is never hit in practice.
        self._rdv_threshold_cache: Optional[int] = None
        self._plateau_cache: Optional[float] = None
        self._transfer_memo: Dict[Tuple[float, TransferMode], float] = {}
        self._mode_memo: Dict[float, TransferMode] = {}
        self._frozen = True

    def __setattr__(self, attr: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(
                f"NicEstimator is immutable after construction "
                f"(tried to set {attr!r}); build a new estimator instead"
            )
        object.__setattr__(self, attr, value)

    def __repr__(self) -> str:
        return (
            f"<NicEstimator {self.name}: eager {len(self.eager)} pts, "
            f"dma {len(self.dma)} pts, rdv threshold {self.rdv_threshold()}B>"
        )

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #

    def transfer_time(self, size: int, mode: TransferMode) -> float:
        """Predicted one-way time of a ``size``-byte chunk in ``mode``.

        For rendezvous this is the *data* time — the per-message handshake
        is accounted once by the caller, not per chunk.

        Memoized per ``(size, mode)``: split solvers re-evaluate the same
        boundary candidates dozens of times per message.
        """
        memo = self._transfer_memo
        key = (size, mode)
        t = memo.get(key)
        if t is None:
            if mode is TransferMode.EAGER:
                t = self.eager(size)
            else:
                t = self.dma(size)
            if len(memo) >= _TRANSFER_MEMO_LIMIT:
                memo.clear()
            memo[key] = t
        return t

    def rdv_handshake(self) -> float:
        """Predicted REQ+ACK cost (two control one-ways)."""
        return 2.0 * self.control_oneway

    def best_mode(self, size: int) -> TransferMode:
        """Cheapest protocol for a full message of ``size`` bytes."""
        memo = self._mode_memo
        mode = memo.get(size)
        if mode is None:
            if size > self.eager_limit:
                mode = TransferMode.RENDEZVOUS
            else:
                eager_t = self.eager(size)
                rdv_t = self.rdv_handshake() + self.dma(size)
                mode = (
                    TransferMode.EAGER
                    if eager_t <= rdv_t
                    else TransferMode.RENDEZVOUS
                )
            if len(memo) >= _TRANSFER_MEMO_LIMIT:
                memo.clear()
            memo[size] = mode
        return mode

    def rdv_threshold(self) -> int:
        """Smallest size where rendezvous beats eager.

        Derived from the sampled curves (paper §III-C's closing remark):
        the grid locates the bracketing power-of-two interval, then an
        integer bisection pins the crossover byte.  Falls back to the
        eager limit when rendezvous never wins within the eager range.

        Computed once and cached — the grid scan plus bisection is ~60
        estimator calls, and even ``__repr__`` needs the value.
        """
        cached = self._rdv_threshold_cache
        if cached is None:
            cached = self._compute_rdv_threshold()
            object.__setattr__(self, "_rdv_threshold_cache", cached)
        return cached

    def _compute_rdv_threshold(self) -> int:
        prev = int(self.eager.sizes[0])
        first_rdv: Optional[int] = None
        for size in self.eager.sizes:
            s = min(int(size), self.eager_limit)
            if self.best_mode(s) is TransferMode.RENDEZVOUS:
                first_rdv = s
                break
            prev = s
            if s == self.eager_limit:
                break
        if first_rdv is None:
            return self.eager_limit
        if first_rdv == prev:
            return first_rdv
        lo, hi = prev, first_rdv  # eager wins at lo, rdv wins at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.best_mode(mid) is TransferMode.RENDEZVOUS:
                hi = mid
            else:
                lo = mid
        return hi

    def plateau_bandwidth(self) -> float:
        """Sampled large-message bandwidth (B/µs) — what a static
        OpenMPI-style ratio strategy uses as each rail's weight."""
        cached = self._plateau_cache
        if cached is None:
            size = self.dma.max_size
            t = self.dma(size)
            if t <= 0:
                raise SamplingError(f"{self.name}: degenerate dma curve")
            cached = size / t
            object.__setattr__(self, "_plateau_cache", cached)
        return cached

    # ------------------------------------------------------------------ #
    # online re-calibration (repro.core.calibration)
    # ------------------------------------------------------------------ #

    def blend(self, fresh: "NicEstimator", weight: float) -> "NicEstimator":
        """A *new* estimator moved ``weight`` of the way towards ``fresh``.

        Estimators are immutable (their memos depend on it), so online
        re-sampling composes a fresh instance: each curve goes through
        :meth:`SampleTable.blend` (which enforces monotonic
        non-decreasing times — the band-edge-inversion fix), the control
        cost is linearly interpolated, capability bounds stay put.
        Repeated blending converges exponentially onto the fresh
        profile: after ``n`` resamples the stale component has decayed
        to ``(1 - weight) ** n``.
        """
        if fresh.name != self.name:
            raise SamplingError(
                f"cannot blend estimator {fresh.name!r} into {self.name!r}"
            )
        return NicEstimator(
            name=self.name,
            eager=self.eager.blend(fresh.eager, weight),
            dma=self.dma.blend(fresh.dma, weight),
            control_oneway=(
                (1.0 - weight) * self.control_oneway
                + weight * fresh.control_oneway
            ),
            eager_limit=self.eager_limit,
        )

    # ------------------------------------------------------------------ #
    # (de)serialization — the paper persists sampling results at launch
    # ------------------------------------------------------------------ #

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "eager": self.eager.as_dict(),
            "dma": self.dma.as_dict(),
            "control_oneway": self.control_oneway,
            "eager_limit": self.eager_limit,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "NicEstimator":
        return cls(
            name=d["name"],
            eager=SampleTable.from_dict(d["eager"]),
            dma=SampleTable.from_dict(d["dma"]),
            control_oneway=float(d["control_oneway"]),
            eager_limit=int(d["eager_limit"]),
        )
