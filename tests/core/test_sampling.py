"""Tests for the sampling subsystem: measurement fidelity and persistence."""

import pytest

from repro.core.packets import TransferMode
from repro.core.sampling import NetworkSampler, ProfileStore
from repro.networks import rail_profile
from repro.util.errors import SamplingError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def mx_sample():
    """Sampling is deterministic; share one measurement across tests."""
    sampler = NetworkSampler(
        eager_sizes=[2 ** k for k in range(2, 17)],
        dma_sizes=[2 ** k for k in range(12, 25)],
    )
    return sampler.sample(rail_profile("myri10g"))


class TestSamplingFidelity:
    """The sampler measures the same model the strategies later drive, so
    measurements must equal the ground-truth profile costs exactly."""

    def test_eager_curve_matches_ground_truth(self, mx_sample):
        p = rail_profile("myri10g")
        for size, t in zip(mx_sample.eager.sizes, mx_sample.eager.times):
            assert t == pytest.approx(p.eager_oneway(size), rel=1e-9)

    def test_dma_curve_matches_ground_truth(self, mx_sample):
        p = rail_profile("myri10g")
        for size, t in zip(mx_sample.dma.sizes, mx_sample.dma.times):
            assert t == pytest.approx(p.rdv_data_oneway(size), rel=1e-9)

    def test_control_matches_ground_truth(self, mx_sample):
        p = rail_profile("myri10g")
        assert mx_sample.control_oneway == pytest.approx(p.control_oneway())

    def test_estimator_interpolates_between_grid_points(self, mx_sample):
        est = mx_sample
        p = rail_profile("myri10g")
        # Off-grid size: the ground truth has a saturating warm-up ramp,
        # so linear interpolation carries a small (but bounded) error.
        s = 3000
        assert est.transfer_time(s, TransferMode.EAGER) == pytest.approx(
            p.eager_oneway(s), rel=0.02
        )

    def test_sampled_threshold_in_plausible_range(self, mx_sample):
        thr = mx_sample.rdv_threshold()
        assert 16 * KiB <= thr <= 64 * KiB


class TestSamplerValidation:
    def test_eager_grid_above_limit_rejected(self):
        sampler = NetworkSampler(eager_sizes=[4, 128 * KiB])
        with pytest.raises(SamplingError):
            sampler.sample(rail_profile("myri10g"))

    def test_bad_repetitions_rejected(self):
        with pytest.raises(SamplingError):
            NetworkSampler(repetitions=0)

    def test_repetitions_are_deterministic(self):
        few = NetworkSampler(eager_sizes=[64, 128], dma_sizes=[4096, 8192])
        many = NetworkSampler(
            eager_sizes=[64, 128], dma_sizes=[4096, 8192], repetitions=3
        )
        elan = rail_profile("quadrics")
        s1, s3 = few.sample(elan), many.sample(elan)
        assert s1.eager.times == s3.eager.times


class TestNoisySampler:
    def make(self, jitter, seed=0, reps=5):
        from repro.core.sampling import NoisySampler

        return NoisySampler(
            jitter_pct=jitter,
            seed=seed,
            eager_sizes=[1024, 2048],
            dma_sizes=[4096, 8192],
            repetitions=reps,
        )

    def test_zero_jitter_is_exact(self):
        clean = NetworkSampler(
            eager_sizes=[1024, 2048], dma_sizes=[4096, 8192]
        ).sample(rail_profile("myri10g"))
        noisy = self.make(0.0).sample(rail_profile("myri10g"))
        assert noisy.eager.times == clean.eager.times

    def test_jitter_perturbs_measurements(self):
        clean = NetworkSampler(
            eager_sizes=[1024, 2048], dma_sizes=[4096, 8192]
        ).sample(rail_profile("myri10g"))
        noisy = self.make(10.0).sample(rail_profile("myri10g"))
        assert noisy.eager.times != clean.eager.times

    def test_same_seed_reproduces(self):
        a = self.make(10.0, seed=7).sample(rail_profile("myri10g"))
        b = self.make(10.0, seed=7).sample(rail_profile("myri10g"))
        assert a.eager.times == b.eager.times

    def test_different_seeds_differ(self):
        a = self.make(10.0, seed=7).sample(rail_profile("myri10g"))
        b = self.make(10.0, seed=8).sample(rail_profile("myri10g"))
        assert a.eager.times != b.eager.times

    def test_median_tightens_with_repetitions(self):
        clean = NetworkSampler(
            eager_sizes=[1024, 2048], dma_sizes=[4096, 8192]
        ).sample(rail_profile("myri10g"))
        errs = {}
        for reps in (1, 21):
            noisy = self.make(15.0, seed=3, reps=reps).sample(rail_profile("myri10g"))
            errs[reps] = max(
                abs(n - c) / c for n, c in zip(noisy.dma.times, clean.dma.times)
            )
        assert errs[21] < errs[1]

    def test_negative_jitter_rejected(self):
        with pytest.raises(SamplingError):
            self.make(-1.0)

    def test_measurements_stay_positive(self):
        sample = self.make(80.0, seed=1).sample(rail_profile("myri10g"))
        assert all(t > 0 for t in sample.eager.times + sample.dma.times)


class TestProfileStore:
    def test_sample_rails_dedupes_technologies(self):
        sampler = NetworkSampler(eager_sizes=[64, 128], dma_sizes=[4096, 8192])
        mx, elan = rail_profile("myri10g"), rail_profile("quadrics")
        store = ProfileStore.sample_rails([mx, mx, elan], sampler=sampler)
        assert sorted(store.estimators) == ["myri10g", "quadrics"]

    def test_getitem_missing_raises(self):
        store = ProfileStore()
        with pytest.raises(SamplingError):
            store["ghost"]

    def test_save_load_roundtrip(self, tmp_path, mx_sample):
        store = ProfileStore()
        store.add(mx_sample)
        path = tmp_path / "profiles.json"
        store.save(path)
        loaded = ProfileStore.load(path)
        assert "myri10g" in loaded
        orig, back = store["myri10g"], loaded["myri10g"]
        for s in (100, 5000, 60000):
            assert back.transfer_time(s, TransferMode.EAGER) == pytest.approx(
                orig.transfer_time(s, TransferMode.EAGER)
            )
        assert back.rdv_threshold() == orig.rdv_threshold()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(SamplingError):
            ProfileStore.load(tmp_path / "nope.json")

    def test_load_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SamplingError):
            ProfileStore.load(path)

    def test_load_mismatched_key_raises(self, tmp_path, mx_sample):
        import json

        est = mx_sample
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"wrongname": est.as_dict()}))
        with pytest.raises(SamplingError):
            ProfileStore.load(path)


def _nan_dma_time_at_128k(entry):
    entry["dma"]["times"][entry["dma"]["sizes"].index(128 * KiB)] = float("nan")


def _nan_control(entry):
    entry["control_oneway"] = float("nan")


def _no_dma(entry):
    del entry["dma"]


def _infinite_size(entry):
    entry["eager"]["sizes"][-1] = float("inf")


# Sampling never measures past the eager limit, so a limit below 1 byte
# or below the eager curve's last size came from an edited file; loaded,
# it sends every message rendezvous (or fails the first threshold query).
def _zero_eager_limit(entry):
    entry["eager_limit"] = 0


def _eager_limit_below_curve(entry):
    entry["eager_limit"] = 3


def _negative_eager_limit(entry):
    entry["eager_limit"] = -5


class TestProfileStoreRejectsBadEntries:
    """A profile file is outside input, and json accepts NaN and
    Infinity: a bad entry must fail the load, naming the file, rather
    than load as a curve that prices some sizes at 0 µs."""

    @pytest.mark.parametrize(
        "spoil",
        [
            _nan_dma_time_at_128k,
            _nan_control,
            _no_dma,
            _infinite_size,
            _zero_eager_limit,
            _eager_limit_below_curve,
            _negative_eager_limit,
        ],
    )
    def test_load_rejects(self, tmp_path, mx_sample, spoil):
        import json

        entry = mx_sample.as_dict()
        spoil(entry)
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"myri10g": entry}))
        with pytest.raises(SamplingError) as info:
            ProfileStore.load(path)
        assert str(path) in str(info.value)
        assert "myri10g" in str(info.value)
