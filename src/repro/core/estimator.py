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
``SampleTable.__call__`` is the innermost call of every split decision:
the two-rail dichotomy evaluates the rails' curves directly, twice per
bisection step and six times for its three end candidates, so lookups
are pure Python over the table's one pair of float lists, the only copy
of each sampled curve.  The test suite checks them bitwise against the
original numpy formula.  Nothing here imports numpy: what loading it
cost every run's start-up is in ``docs/performance.md`` ("11. Start-up
and footprint").

:class:`NicEstimator` is immutable after construction (enforced via
``__setattr__``), so its derived quantities — ``rdv_threshold``,
``plateau_bandwidth``, per-mode transfer times — never go stale.  The
transfer-time memo serves the callers whose sizes repeat (the zero-byte
control packet, eager message sizes, chunk prediction stamps, the
collective cost model's segments); the split solvers' boundary
candidates rarely repeat, so they read the curves instead of filling
it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

from repro.core.packets import TransferMode
from repro.util.errors import SamplingError

#: cap on each per-estimator memo before it is reset wholesale
_TRANSFER_MEMO_LIMIT = 65_536


class SampleTable:
    """A sampled (size → time) curve with log-indexed interpolation.

    ``sizes`` and ``times`` are the curve itself: one pair of float
    lists, never mutated (``blend`` and ``from_dict`` build new tables).
    Every value must be finite, sizes strictly increasing and times
    non-negative.  Consecutive powers of two enable the O(1) logarithm
    lookup of the paper; any other strictly increasing grid works
    through a binary search.
    """

    def __init__(self, sizes: Sequence[float], times: Sequence[float]) -> None:
        if len(sizes) != len(times):
            raise SamplingError(
                f"{len(sizes)} sizes vs {len(times)} times"
            )
        if len(sizes) < 2:
            raise SamplingError("a sample table needs at least two points")
        self.sizes: List[float] = [float(s) for s in sizes]
        self.times: List[float] = [float(t) for t in times]
        for s, t in zip(self.sizes, self.times):
            if not (math.isfinite(s) and math.isfinite(t)):
                raise SamplingError(f"non-finite sample point ({s}, {t})")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise SamplingError(f"sizes not strictly increasing: {self.sizes}")
        if any(t < 0 for t in self.times):
            raise SamplingError("negative sampled time")
        # The O(1) log path needs exact powers of two (frexp mantissa
        # 0.5) whose exponents step by one; a grid merely close to one
        # would put the log bracket off the binary search's.
        exps = [math.frexp(s) for s in self.sizes]
        self._pow2 = all(m == 0.5 for m, _ in exps) and all(
            b - a == 1 for (_, a), (_, b) in zip(exps, exps[1:])
        )
        self._log0 = exps[0][1] - 1 if self._pow2 else 0
        self._last_segment = len(self.sizes) - 2
        # per-segment slopes, for the extrapolation in :meth:`inverse`
        self._slopes: List[float] = [
            (self.times[i + 1] - self.times[i]) / (self.sizes[i + 1] - self.sizes[i])
            for i in range(len(self.sizes) - 1)
        ]
        #: the (extrapolated) zero-size time, the floor of :meth:`inverse`
        self._zero_time = self(0)

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def min_size(self) -> int:
        return int(self.sizes[0])

    @property
    def max_size(self) -> int:
        return int(self.sizes[-1])

    def __call__(self, size: float) -> float:
        """Estimated time for ``size`` bytes (linear inter-/extrapolation).

        The bracket is the segment ``i`` with sizes[i] <= size <
        sizes[i+1], clamped to the first and last segments (sizes below
        one byte use the first).  Results are clamped to be non-negative
        (extrapolating the first segment below the smallest sample could
        otherwise go negative).
        """
        if size < 0:
            raise SamplingError(f"negative size: {size}")
        x = size if size > 1.0 else 1.0
        if self._pow2:
            i = math.floor(math.log2(x)) - self._log0
        else:
            i = bisect_right(self.sizes, x) - 1
        if i < 0:
            i = 0
        elif i > self._last_segment:
            i = self._last_segment
        s0 = self.sizes[i]
        s1 = self.sizes[i + 1]
        t0 = self.times[i]
        t1 = self.times[i + 1]
        t = t0 + (t1 - t0) * (size - s0) / (s1 - s0)
        return t if t > 0.0 else 0.0

    def inverse(self, time: float) -> float:
        """Largest size transferable within ``time`` (for waterfilling).

        Requires a non-decreasing curve.  Returns 0 when even the
        extrapolated zero-size transfer exceeds ``time``, and extrapolates
        past the largest sample using the final segment's rate.
        """
        times = self.times
        sizes = self.sizes
        if time <= self._zero_time:
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
            for s, t in zip(self.sizes, self.times)
        ]
        running = 0.0
        for i, t in enumerate(times):
            if t < running:
                times[i] = running
            else:
                running = t
        return SampleTable(self.sizes, times)

    def as_dict(self) -> Dict[str, List[float]]:
        return {"sizes": list(self.sizes), "times": list(self.times)}

    @classmethod
    def from_dict(cls, d: Dict[str, List[float]]) -> "SampleTable":
        return cls(d["sizes"], d["times"])


class NicEstimator:
    """Everything the strategy knows about one NIC, learned by sampling.

    Immutable after construction: attribute assignment raises, which is
    what licenses the internal memoization (``rdv_threshold``,
    ``plateau_bandwidth`` and the per-mode transfer-time memos are
    computed at most once and never invalidated).

    Parameters
    ----------
    name:
        Technology/NIC label (matches ``Nic.profile.name``).
    eager:
        Sampled one-way eager times (up to the rail's eager limit).
    dma:
        Sampled one-way rendezvous *data* times (handshake excluded).
    control_oneway:
        Measured one-way control-packet time.
    eager_limit:
        The rail's bound on eager sizes: at least 1 byte, and no smaller
        than the largest size on ``eager`` (sampling never measures past
        the limit, so a curve that does came from an edited or corrupt
        file).
    """

    def __init__(
        self,
        name: str,
        eager: SampleTable,
        dma: SampleTable,
        control_oneway: float,
        eager_limit: int,
    ) -> None:
        if not (math.isfinite(control_oneway) and control_oneway >= 0):
            raise SamplingError(
                f"control time must be finite and >= 0: {control_oneway}"
            )
        if eager_limit < 1 or eager_limit < eager.sizes[-1]:
            raise SamplingError(
                f"{name}: eager limit {eager_limit}B is below 1 or below the "
                f"eager curve's largest size {eager.max_size}B"
            )
        self.name = name
        self.eager = eager
        self.dma = dma
        self.control_oneway = control_oneway
        self.eager_limit = eager_limit
        # Memoized derivations (estimators are immutable, so these never
        # need invalidation).  The transfer memos hold one entry per
        # distinct size a repeating caller asks for (the split solvers
        # read the curves directly); each is bounded and reset wholesale
        # on overflow.  Keyed by the plain size, so no key is a tuple the
        # cyclic collector has to track.
        self._rdv_threshold_cache: Optional[int] = None
        self._plateau_cache: Optional[float] = None
        self._eager_memo: Dict[float, float] = {}
        self._dma_memo: Dict[float, float] = {}
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

        Memoized per mode, keyed by ``size``: the control packet, eager
        message sizes, chunk prediction stamps and the collective cost
        model ask for the same sizes again and again.  A memo hit returns the float the curve
        computes, so the split solvers, which read ``eager``/``dma``
        directly, agree with it bit for bit.
        """
        if mode is TransferMode.EAGER:
            memo, table = self._eager_memo, self.eager
        else:
            memo, table = self._dma_memo, self.dma
        t = memo.get(size)
        if t is None:
            t = table(size)
            if len(memo) >= _TRANSFER_MEMO_LIMIT:
                memo.clear()
            memo[size] = t
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
