"""NIC idle prediction and rail-subset selection (paper §II-B, Fig. 2).

The strategy must decide *which* NICs participate before computing the
split ratio: "NIC1 is typically discarded provided that NIC2 is expected
to become free before NIC1".  :class:`CompletionPredictor` combines each
NIC's :attr:`busy_until` (exact, because every submitter declares its
transmit cost) with the sampled estimator and picks the subset of rails
whose predicted completion is smallest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimator import NicEstimator, SampleTable
from repro.core.packets import TransferMode
from repro.core.split import dichotomy_split, mode_curve, waterfill_split
from repro.networks.nic import Nic
from repro.obs.hooks import Hooks
from repro.util.errors import ConfigurationError, SamplingError, SchedulingError


@dataclass(slots=True)
class RailPlan:
    """A concrete multirail transfer decision (slotted — every send in
    a storm allocates one)."""

    nics: List[Nic]                  # rails actually used (chunk size > 0)
    sizes: List[int]                 # bytes per rail, aligned with nics
    predicted_completion: float = 0.0
    #: split-solver iterations behind the sizes (0 when not solved)
    iterations: int = 0
    #: per-rail confidence scores, attached when the calibration drift
    #: loop planned (or reviewed) this decision; None otherwise
    confidence: Optional[Dict[str, float]] = None
    #: fallback-ladder trust level the plan was made under
    #: ("full" / "partial" / "single"); None when calibration is off
    trust: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.nics) != len(self.sizes):
            raise ConfigurationError("plan rails/sizes length mismatch")

    @classmethod
    def over(
        cls,
        nics: Sequence[Nic],
        sizes: Sequence[int],
        predicted_completion: float = 0.0,
        iterations: int = 0,
    ) -> "RailPlan":
        """The plan sending ``sizes[i]`` bytes on ``nics[i]``; rails
        given zero bytes are left out."""
        used = [(n, s) for n, s in zip(nics, sizes) if s > 0]
        return cls(
            nics=[n for n, _ in used],
            sizes=[s for _, s in used],
            predicted_completion=predicted_completion,
            iterations=iterations,
        )

    @property
    def total(self) -> int:
        return sum(self.sizes)


#: cap on the per-predictor plan cache before it is reset wholesale
_PLAN_CACHE_LIMIT = 8_192


class _ScaledTable:
    """A sampled curve stretched by a degradation factor.

    A NIC running at ``bw_factor`` of its nominal bandwidth takes
    ``1/bw_factor`` times as long per transfer, so times scale up and the
    inverse (bytes movable within ``t``) scales the time down first.
    """

    __slots__ = ("_table", "_factor")

    def __init__(self, table: SampleTable, bw_factor: float) -> None:
        self._table = table
        self._factor = bw_factor

    def __call__(self, size: float) -> float:
        return self._table(size) / self._factor

    def inverse(self, time: float) -> float:
        return self._table.inverse(time * self._factor)


class _ScaledEstimator:
    """Degradation-aware view of an immutable :class:`NicEstimator`.

    The split solvers only touch ``name``, ``transfer_time`` and the
    ``eager``/``dma`` tables, so this thin wrapper is all a degraded rail
    needs: its tables and ``transfer_time`` both divide the wrapped
    estimator's times by the factor, so they agree bit for bit.
    """

    __slots__ = ("_est", "_factor", "name", "eager", "dma")

    def __init__(self, est: NicEstimator, bw_factor: float) -> None:
        self._est = est
        self._factor = bw_factor
        self.name = est.name
        self.eager = _ScaledTable(est.eager, bw_factor)
        self.dma = _ScaledTable(est.dma, bw_factor)

    def transfer_time(self, size: int, mode: TransferMode) -> float:
        return self._est.transfer_time(size, mode) / self._factor


class CompletionPredictor:
    """Predicts transfer completions and selects rail subsets.

    Repeated same-shape decisions — identical ``(rail set, size, mode,
    busy offsets)`` — are served from a per-predictor cache instead of
    re-running the subset enumeration and bisections: steady-state
    traffic and every size sweep re-plan the same shapes constantly.
    Estimators are immutable after construction, so cached plans can
    only go stale if the estimator set itself is swapped — which builds
    a fresh predictor (``Cluster.resample`` does exactly that).

    The cache keys on exact busy offsets, so a hit never changes any
    planned byte — simulated timestamps stay bit-identical to an
    uncached run.

    ``hooks``/``node``: the owning engine's hook stream and node name —
    every plan decision is emitted as ``on_plan`` under that node.
    """

    def __init__(
        self,
        estimators: Dict[str, NicEstimator],
        hooks: Optional[Hooks] = None,
        node: str = "",
    ) -> None:
        if not estimators:
            raise SamplingError("predictor needs at least one estimator")
        self.estimators = dict(estimators)
        self._plan_cache: Dict[tuple, tuple] = {}
        self._scaled_cache: Dict[Tuple[str, float], _ScaledEstimator] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.hooks = hooks if hooks is not None else Hooks()
        self.node = node

    def estimator_for(self, nic: Nic) -> NicEstimator:
        """The estimator sampled for this NIC's technology."""
        try:
            return self.estimators[nic.profile.name]
        except KeyError:
            raise SamplingError(
                f"no sampling profile for {nic.profile.name!r}; "
                f"sampled: {sorted(self.estimators)}"
            ) from None

    def _planning_estimator(self, nic: Nic):
        """The estimator as planning should see it *right now*: the
        sampled curves, stretched when the NIC is currently degraded.
        Healthy NICs get the raw (shared, memoized) estimator so the
        fault-free path stays bit-identical."""
        est = self.estimator_for(nic)
        factor = nic.bw_factor
        if factor == 1.0:
            return est
        key = (nic.profile.name, factor)
        scaled = self._scaled_cache.get(key)
        if scaled is None or scaled._est is not est:
            scaled = _ScaledEstimator(est, factor)
            self._scaled_cache[key] = scaled
        return scaled

    # ------------------------------------------------------------------ #
    # point predictions
    # ------------------------------------------------------------------ #

    def busy_offset(self, nic: Nic) -> float:
        """µs until the NIC's transmit engine frees up (0 when idle)."""
        return nic.busy_until - nic.sim.now

    def _rail_offset(self, nic: Nic) -> float:
        """Busy offset plus any fault-injected delivery latency.  The
        addition is skipped entirely on healthy rails so the fault-free
        arithmetic stays bit-identical."""
        off = self.busy_offset(nic)
        extra = nic.extra_latency
        return off if extra == 0.0 else off + extra

    def predict(self, nic: Nic, size: int, mode: TransferMode) -> float:
        """Predicted completion (µs from now) of a chunk on this NIC,
        including the wait for the NIC to become idle (Fig. 2) and the
        slowdown of any active degradation fault."""
        return self._rail_offset(nic) + self._planning_estimator(
            nic
        ).transfer_time(size, mode)

    def planning_transfer_time(
        self, nic: Nic, size: int, mode: TransferMode
    ) -> float:
        """Pure service-time prediction for one chunk (no busy offset,
        no fault latency) — the quantity the accuracy telemetry pairs
        with the chunk's measured pipeline time."""
        return self._planning_estimator(nic).transfer_time(size, mode)

    # ------------------------------------------------------------------ #
    # rail-subset selection + split (the full §II-B decision)
    # ------------------------------------------------------------------ #

    def plan(
        self,
        nics: Sequence[Nic],
        size: int,
        mode: TransferMode,
        max_rails: Optional[int] = None,
        fixed_cost: float = 0.0,
    ) -> RailPlan:
        """Choose the rail subset and split that minimize completion.

        Every non-empty subset of ``nics`` (capped at ``max_rails``) is
        evaluated with an equal-completion split; ties favour fewer rails
        (cheaper).  ``fixed_cost`` is added per *additional* rail beyond
        the first — the offloading cost TO of equation (1), zero for
        rendezvous DMA chunks.

        For two-rail subsets the paper's dichotomy is used; larger subsets
        fall back to waterfilling.
        """
        if size < 1:
            raise ConfigurationError(f"plan needs a positive size: {size}")
        nics = list(nics)
        if not nics:
            raise ConfigurationError("plan over zero NICs")
        # Safety net behind the engine's rails_to filtering: never plan
        # bytes onto a rail that is currently down.
        up = [n for n in nics if n.is_up]
        if not up:
            raise SchedulingError(
                f"no up rail to plan over: {[n.qualified_name for n in nics]}"
            )
        nics = up
        limit = len(nics) if max_rails is None else max(1, min(max_rails, len(nics)))

        # Split-decision cache: same shape → same plan, skip the solvers.
        # Degradation factors are part of the shape — a rail at half
        # bandwidth must not reuse plans computed while it was healthy.
        offsets = tuple(self._rail_offset(n) for n in nics)
        cache_key = (
            tuple(n.name for n in nics),
            size,
            mode,
            offsets,
            limit,
            fixed_cost,
            tuple(n.bw_factor for n in nics),
        )
        cached = self._plan_cache.get(cache_key)
        hit = cached is not None
        if hit:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
            cached = self._solve(nics, offsets, size, mode, limit, fixed_cost)
            if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
                self._plan_cache.clear()
            self._plan_cache[cache_key] = cached
        subset_idx, sizes, iterations, completion = cached
        plan = RailPlan.over(
            [nics[i] for i in subset_idx], sizes, completion, iterations
        )
        if self.hooks.on_plan:
            self.hooks.on_plan(
                self.node, nics, offsets, size, mode, plan, iterations, hit
            )
        return plan

    def _solve(
        self,
        nics: List[Nic],
        offsets: Tuple[float, ...],
        size: int,
        mode: TransferMode,
        limit: int,
        fixed_cost: float,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, float]:
        """The best (subset, sizes, iterations, completion) over every
        subset of at most ``limit`` rails."""
        all_rails = [
            (self._planning_estimator(n), off) for n, off in zip(nics, offsets)
        ]
        best: Optional[Tuple[float, int, Tuple[int, ...], Tuple[int, ...], int]] = None
        for k in range(1, limit + 1):
            for subset_idx in itertools.combinations(range(len(nics)), k):
                if k == 1:
                    # One rail: the whole message at that rail's curve.
                    est, off = all_rails[subset_idx[0]]
                    completion, active = off + mode_curve(est, mode)(size), 1
                    sizes, iterations = (size,), 0
                else:
                    rails = [all_rails[i] for i in subset_idx]
                    if k == 2:
                        split = dichotomy_split(size, rails, mode)
                    else:
                        split = waterfill_split(size, rails, mode)
                    active = split.active_rails
                    completion = split.predicted_completion + (
                        fixed_cost if active > 1 else 0.0
                    )
                    sizes, iterations = tuple(split.sizes), split.iterations
                key = (completion, active)
                if best is None or key < (best[0], best[1]):
                    best = (completion, active, subset_idx, sizes, iterations)
        assert best is not None
        completion, _, subset_idx, sizes, iterations = best
        return subset_idx, sizes, iterations, completion
