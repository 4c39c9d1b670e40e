"""Network sampling: measure each rail at powers of two (paper §III-C).

"Instead of simply relying on the usual bandwidth and latency parameters
provided by the vendors, an accurate profile of each NIC is performed at
the initialization of NewMadeleine.  Such a profile is measured with the
help of a set of benchmarks that were designed for that purpose."

The sampler builds a *private* two-node testbed per rail technology (its
:class:`~repro.networks.profile.NetworkProfile`) inside its own simulator
and measures, for each power-of-two size:

* the **eager** one-way time (PIO path, up to the profile's eager limit);
* the **DMA** one-way time (rendezvous data, handshake excluded);
* the **control** packet one-way time (from which the rendezvous
  handshake is predicted).

Because the strategy later drives the *same* simulated NIC models, the
measure-then-predict feedback loop of the real system is preserved; the
only estimator error left is interpolation between grid points — which
ablation A2 quantifies.

Profiles persist to JSON via :class:`ProfileStore`, mirroring the real
``nmad`` sampling files written at install time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

from repro.core.estimator import NicEstimator, SampleTable
from repro.hardware.machine import Machine
from repro.networks.nic import Nic
from repro.networks.profile import NetworkProfile
from repro.networks.transfer import Transfer, TransferKind
from repro.networks.wire import Wire
from repro.pioman.progress import PiomanEngine
from repro.simtime import Simulator
from repro.util.errors import SamplingError
from repro.util.stats import percentile
from repro.util.units import KiB, MiB, pow2_sizes


class NetworkSampler:
    """Runs the §III-C sampling benchmarks for a rail technology.

    Parameters
    ----------
    eager_sizes / dma_sizes:
        Measurement grids; default to powers of two (4 B up to the eager
        limit, and 4 KiB – 16 MiB respectively).
    repetitions:
        Measurements per point, aggregated by median.  The simulator is
        deterministic so the default of 1 is exact; higher values exist
        for parity with the real benchmarks (and for subclasses that
        inject noise).
    """

    def __init__(
        self,
        eager_sizes: Optional[Sequence[int]] = None,
        dma_sizes: Optional[Sequence[int]] = None,
        repetitions: int = 1,
    ) -> None:
        if repetitions < 1:
            raise SamplingError(f"repetitions must be >= 1, got {repetitions}")
        self._eager_sizes = list(eager_sizes) if eager_sizes is not None else None
        self._dma_sizes = (
            list(dma_sizes) if dma_sizes is not None else pow2_sizes(4 * KiB, 16 * MiB)
        )
        self.repetitions = repetitions

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def sample(self, profile: NetworkProfile) -> NicEstimator:
        """Measure one rail technology on a fresh private testbed.

        Returns its :class:`NicEstimator`.  Its two
        :class:`SampleTable` curves hold the measured points themselves,
        so the planner reads the only copy of each curve.
        """
        eager_sizes = (
            self._eager_sizes
            if self._eager_sizes is not None
            else pow2_sizes(4, profile.eager_limit)
        )
        bad = [s for s in eager_sizes if s > profile.eager_limit]
        if bad:
            raise SamplingError(
                f"eager grid exceeds {profile.name} limit: {bad}"
            )
        eager_times = [
            self._measure(profile, TransferKind.EAGER, s) for s in eager_sizes
        ]
        dma_times = [
            self._measure(profile, TransferKind.RDV_DATA, s) for s in self._dma_sizes
        ]
        control = self._measure(profile, TransferKind.RDV_REQ, 0)
        return NicEstimator(
            name=profile.name,
            eager=SampleTable(eager_sizes, eager_times),
            dma=SampleTable(self._dma_sizes, dma_times),
            control_oneway=control,
            eager_limit=profile.eager_limit,
        )

    # ------------------------------------------------------------------ #
    # one measurement point
    # ------------------------------------------------------------------ #

    def _measure(self, profile: NetworkProfile, kind: TransferKind, size: int) -> float:
        shots = [self._one_shot(profile, kind, size) for _ in range(self.repetitions)]
        return percentile(shots, 50.0)

    def _one_shot(self, profile: NetworkProfile, kind: TransferKind, size: int) -> float:
        sim = Simulator()
        node_a = Machine(sim, "sampler0")
        node_b = Machine(sim, "sampler1")
        nic_a = Nic(node_a, profile, name="probe")
        nic_b = Nic(node_b, profile, name="probe")
        self._prepare_probe(nic_a, nic_b)
        Wire(nic_a, nic_b)
        # the NICs hold their PIOMan weakly: these locals keep it alive
        pioman_a, pioman_b = PiomanEngine(node_a), PiomanEngine(node_b)
        pioman_a.bind()
        pioman_b.bind()
        transfer = Transfer(kind=kind, size=size, msg_id=0)
        nic_a.submit(transfer, node_a.cores[0])
        sim.run()
        if transfer.t_complete is None:
            raise SamplingError(
                f"{profile.name}: {kind.value} probe of {size}B never completed"
            )
        return transfer.t_complete - transfer.t_submit

    def _prepare_probe(self, nic_a: Nic, nic_b: Nic) -> None:
        """Hook: adjust the freshly built probe NICs before measuring.

        The base sampler measures pristine hardware (launch-time
        sampling).  :class:`OnlineSampler` overrides this to mirror a
        *live* NIC's unannounced state onto the probes, so a runtime
        re-sample measures the rail as it currently behaves.
        """


class OnlineSampler(NetworkSampler):
    """Runtime re-sampling of one *live* rail (calibration drift loop).

    The launch-time sampler measures factory-fresh NICs; once a rail has
    silently degraded that profile is a lie.  This sampler mirrors the
    live NIC's **silent** bandwidth factor onto the private-testbed
    probes, so the ping-pong measures the rail's *current actual* speed.
    The private simulator doubles as quiescence: in-flight traffic on
    the real cluster is untouched while the probe runs.

    Announced degradation (``bw_factor`` / ``extra_latency``) is *not*
    mirrored — the planner already compensates for it via the scaled
    estimator view; baking it into the profile would double-count.
    """

    def __init__(self, live_nic: Nic) -> None:
        super().__init__()
        self.live_nic = live_nic

    def _prepare_probe(self, nic_a: Nic, nic_b: Nic) -> None:
        factor = self.live_nic.silent_bw_factor
        if factor != 1.0:
            nic_a.silent_bw_factor = factor
            nic_b.silent_bw_factor = factor


class NoisySampler(NetworkSampler):
    """A sampler whose probes carry multiplicative measurement jitter.

    The simulator itself is deterministic, but *real* sampling runs are
    not — OS noise, cache state and timer granularity perturb every
    ping-pong.  This subclass models that: each probe is scaled by a
    deterministic pseudo-random factor drawn from
    ``Normal(1, jitter_pct/100)`` (clamped to stay positive), so the
    median over ``repetitions`` converges on the truth the way the real
    benchmarks' aggregation does.  Ablation A9 measures how much jitter
    the hetero-split strategy tolerates.

    The library's one numpy import is in ``__init__``: A9's committed
    numbers come from numpy's Gaussian draws, and only A9 builds one.
    """

    def __init__(
        self,
        jitter_pct: float,
        seed: int = 0,
        eager_sizes: Optional[Sequence[int]] = None,
        dma_sizes: Optional[Sequence[int]] = None,
        repetitions: int = 5,
    ) -> None:
        super().__init__(
            eager_sizes=eager_sizes, dma_sizes=dma_sizes, repetitions=repetitions
        )
        if jitter_pct < 0:
            raise SamplingError(f"negative jitter: {jitter_pct}")
        self.jitter_pct = jitter_pct
        self._seed = seed
        import numpy as np

        self._rng = np.random.default_rng(seed)

    def _one_shot(self, profile: NetworkProfile, kind: TransferKind, size: int) -> float:
        clean = super()._one_shot(profile, kind, size)
        if self.jitter_pct == 0:
            return clean
        factor = max(0.01, 1.0 + self._rng.normal(0.0, self.jitter_pct / 100.0))
        return clean * factor


class ProfileStore:
    """Named collection of :class:`NicEstimator`, persisted as JSON."""

    def __init__(self, estimators: Optional[Dict[str, NicEstimator]] = None) -> None:
        self.estimators: Dict[str, NicEstimator] = dict(estimators or {})

    def __contains__(self, name: str) -> bool:
        return name in self.estimators

    def __getitem__(self, name: str) -> NicEstimator:
        try:
            return self.estimators[name]
        except KeyError:
            raise SamplingError(
                f"no profile for {name!r}; have {sorted(self.estimators)}"
            ) from None

    def add(self, estimator: NicEstimator) -> None:
        self.estimators[estimator.name] = estimator

    @classmethod
    def sample_rails(
        cls,
        profiles: Iterable[NetworkProfile],
        sampler: Optional[NetworkSampler] = None,
    ) -> "ProfileStore":
        """Sample every rail technology once (deduplicated by name)."""
        sampler = sampler or NetworkSampler()
        store = cls()
        for profile in profiles:
            if profile.name not in store:
                store.add(sampler.sample(profile))
        return store

    # -- persistence ------------------------------------------------------

    def save(self, path: "str | Path") -> None:
        data = {name: est.as_dict() for name, est in self.estimators.items()}
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: "str | Path") -> "ProfileStore":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SamplingError(f"cannot load profile store {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise SamplingError(f"profile store {path} is not a JSON object")
        store = cls()
        for name, d in data.items():
            # Outside input: a missing key, a wrong type or a non-finite
            # number (json accepts NaN and Infinity) fails the load here,
            # not later as a curve that prices some sizes at zero.
            try:
                est = NicEstimator.from_dict(d)
            except (SamplingError, KeyError, TypeError, ValueError, OverflowError) as e:
                raise SamplingError(
                    f"profile store {path}: entry {name!r}: {e!r}"
                ) from e
            if est.name != name:
                raise SamplingError(
                    f"profile store {path}: key {name!r} holds estimator {est.name!r}"
                )
            store.add(est)
        return store
