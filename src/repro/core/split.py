"""Split-ratio computation: equal-transfer-time chunking (paper Fig. 1c).

Messages are split so every chunk's *predicted completion* — the rail's
remaining busy time plus the sampled transfer time of the chunk — is
equal, which minimizes the completion of the whole message.

Two solvers:

* :func:`dichotomy_split` — the paper's §II-B algorithm, verbatim: start
  from an equal split, compare the two predicted durations, move the
  boundary by bisection until they are equivalent.  Two rails.
* :func:`waterfill_split` — n-rail generalization used for >2 rails and
  as the analytic cross-check in the ablation benches: bisection on the
  completion time ``T``, inverting each rail's sampled curve to find how
  many bytes it can move by ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.estimator import NicEstimator
from repro.core.packets import TransferMode
from repro.util.errors import ConfigurationError

#: a rail as the solvers see it: (estimator, busy offset in µs)
Rail = Tuple[NicEstimator, float]


@dataclass(slots=True)
class SplitResult:
    """Outcome of a split computation (slotted: one per plan, and the
    plan cache round-trips its fields as plain tuples)."""

    sizes: List[int]                 # bytes per rail, same order as input
    predicted_times: List[float]     # offset + transfer time per rail
    iterations: int

    @property
    def predicted_completion(self) -> float:
        return max(t for s, t in zip(self.sizes, self.predicted_times) if s > 0)

    @property
    def active_rails(self) -> int:
        return sum(1 for s in self.sizes if s > 0)


def mode_curve(est: NicEstimator, mode: TransferMode):
    """The sampled curve behind ``est.transfer_time(·, mode)``: the eager
    table for eager chunks, the DMA table otherwise.  The solvers read
    it directly, so their boundary candidates skip the estimator memo."""
    return est.eager if mode is TransferMode.EAGER else est.dma


def _validate(size: int, rails: Sequence[Rail]) -> None:
    if size < 0:
        raise ConfigurationError(f"negative split size: {size}")
    if not rails:
        raise ConfigurationError("split over zero rails")
    for est, offset in rails:
        if offset < 0:
            raise ConfigurationError(f"negative busy offset on {est.name}: {offset}")


def equal_split(size: int, n: int) -> List[int]:
    """Iso-split: n chunks whose sizes differ by at most one byte."""
    if n < 1:
        raise ConfigurationError(f"cannot split into {n} chunks")
    base, extra = divmod(size, n)
    return [base + (1 if i < extra else 0) for i in range(n)]


def ratio_split(size: int, weights: Sequence[float]) -> List[int]:
    """Proportional split (OpenMPI-style static bandwidth ratio).

    Largest-remainder rounding keeps the total exact.
    """
    if not weights or any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ConfigurationError(f"bad ratio weights: {weights}")
    total_w = float(sum(weights))
    raw = [size * w / total_w for w in weights]
    sizes = [int(r) for r in raw]
    remainders = sorted(
        range(len(raw)), key=lambda i: raw[i] - sizes[i], reverse=True
    )
    short = size - sum(sizes)
    for i in range(short):
        sizes[remainders[i % len(raw)]] += 1
    return sizes


def dichotomy_split(
    size: int,
    rails: Sequence[Rail],
    mode: TransferMode,
    tolerance: float = 0.05,
    max_iterations: int = 40,
) -> SplitResult:
    """The paper's two-rail bisection on the split point.

    Starts at the equal split; at every step the rail with the larger
    predicted duration (busy offset + sampled transfer time) sheds half
    the current step's bytes to the other rail, "repeated until a split
    ratio where both transfer durations are equivalent is found"
    (within ``tolerance`` µs).

    A boundary driven to one end means the message should not be split at
    all — one rail gets everything (the Fig. 2 discard case).

    Each rail's sampled curve for ``mode`` is read directly
    (:func:`mode_curve`), and each of the three end candidates — the
    rounded boundary, nothing on the first rail, everything on it — is
    priced once; the winner's two times are the result's
    ``predicted_times``.
    """
    _validate(size, rails)
    if len(rails) != 2:
        raise ConfigurationError(
            f"dichotomy_split handles exactly 2 rails, got {len(rails)}; "
            "use waterfill_split"
        )
    (est_a, off_a), (est_b, off_b) = rails
    curve_a, curve_b = mode_curve(est_a, mode), mode_curve(est_b, mode)

    x = size / 2.0
    step = size / 4.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        ta = off_a + curve_a(x)
        tb = off_b + curve_b(size - x)
        if abs(ta - tb) <= tolerance or step < 0.5:
            break
        if ta > tb:
            x -= step
        else:
            x += step
        step /= 2.0
    x = min(max(x, 0.0), float(size))

    # Degenerate boundaries: sending everything on one rail may beat any
    # split once an offset or a fixed cost dominates.
    best = None
    best_completion = float("inf")
    for sa in (int(round(x)), 0, size):
        sb = size - sa
        ta = off_a + curve_a(sa)
        tb = off_b + curve_b(sb)
        completion = max(ta if sa > 0 else 0.0, tb if sb > 0 else 0.0)
        if size == 0:
            completion = 0.0
        if completion < best_completion - 1e-12:
            best_completion = completion
            best = (sa, sb, ta, tb)
    assert best is not None
    sa, sb, ta, tb = best
    return SplitResult(sizes=[sa, sb], predicted_times=[ta, tb], iterations=iterations)


def waterfill_split(
    size: int,
    rails: Sequence[Rail],
    mode: TransferMode,
    tolerance: float = 0.01,
    max_iterations: int = 60,
) -> SplitResult:
    """n-rail equal-completion split via bisection on the completion time.

    For a candidate completion ``T``, each rail can absorb
    ``inverse(T - offset)`` bytes; the smallest ``T`` whose total capacity
    reaches ``size`` is the optimum.  Rails whose fixed costs exceed ``T``
    naturally receive zero bytes — the Fig. 2 discard rule for free.
    """
    _validate(size, rails)
    if size == 0:
        return SplitResult(
            sizes=[0] * len(rails),
            predicted_times=[0.0] * len(rails),
            iterations=0,
        )

    def capacity(t: float) -> float:
        return sum(
            mode_curve(est, mode).inverse(max(0.0, t - off)) for est, off in rails
        )

    # Bracket: lo = cheapest single-byte send; hi = everything on the rail
    # that finishes a full-size transfer earliest.
    lo = min(off for _, off in rails)
    hi = min(off + est.transfer_time(size, mode) for est, off in rails)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if hi - lo <= tolerance:
            break
        mid = (lo + hi) / 2.0
        if capacity(mid) >= size:
            hi = mid
        else:
            lo = mid

    shares = [mode_curve(est, mode).inverse(max(0.0, hi - off)) for est, off in rails]
    total = sum(shares)
    if total <= 0:
        # Degenerate: give everything to the earliest-finishing rail.
        best = min(
            range(len(rails)),
            key=lambda i: rails[i][1] + rails[i][0].transfer_time(size, mode),
        )
        sizes = [size if i == best else 0 for i in range(len(rails))]
    else:
        sizes = ratio_split(size, [s / total for s in shares])
    times = [
        off + est.transfer_time(s, mode) if s > 0 else 0.0
        for (est, off), s in zip(rails, sizes)
    ]
    return SplitResult(sizes=sizes, predicted_times=times, iterations=iterations)
