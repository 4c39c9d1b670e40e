"""The fan-out contract: sharded runs are byte-identical to serial ones.

``soak(jobs=)`` and ``sweep_oneway(jobs=)`` lean on one property — each
work item is deterministically self-seeded, so the merged result is a
pure function of the input list, not of worker count or scheduling.
These tests pin that property with real 2-worker pools (cheap: tiny
seed lists, fork start method on Linux).
"""

import json
import os
import pickle

import pytest

from repro.bench.parallel import soak_artifact
from repro.bench.runners import sweep_oneway
from repro.core.invariants import InvariantViolation
from repro.faults import soak
from repro.util.errors import ConfigurationError
from repro.util.parallel import parallel_map, resolve_jobs


def _square(x):
    return x * x


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_cpu_count(self):
        expected = os.cpu_count() or 1
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == expected

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)


class TestParallelMap:
    def test_inline_path_when_jobs_is_one(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_preserves_input_order(self):
        items = list(range(11))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_single_item_runs_inline_even_with_jobs(self):
        # len(items) <= 1 never pays pool start-up cost.
        assert parallel_map(_square, [7], jobs=4) == [49]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=2) == []


class TestSoakFanOut:
    def test_sharded_artifact_is_byte_identical_to_serial(self):
        serial = soak(range(4), jobs=1, horizon=400.0, intensity=2)
        sharded = soak(range(4), jobs=2, horizon=400.0, intensity=2)
        a = json.dumps(soak_artifact(serial), sort_keys=True)
        b = json.dumps(soak_artifact(sharded), sort_keys=True)
        assert a == b

    def test_results_merge_in_seed_order(self):
        report = soak([5, 1, 9], jobs=2, horizon=300.0, intensity=1)
        assert [r.seed for r in report.scenarios] == [5, 1, 9]

    def test_artifact_drops_wall_clock_fields(self):
        report = soak(range(2), jobs=1, horizon=300.0, intensity=1)
        art = soak_artifact(report)
        assert "wall_seconds" not in art and "scenarios_per_sec" not in art
        assert report.wall_seconds > 0  # still on the report itself

    def test_int_seeds_means_range(self):
        report = soak(3, jobs=1, horizon=300.0, intensity=1)
        assert [r.seed for r in report.scenarios] == [0, 1, 2]


class TestInvariantViolationPickles:
    def test_round_trip_preserves_payload(self):
        """Soak workers can raise this across the process boundary; the
        default exception reduce breaks on the custom ``__init__``."""
        exc = InvariantViolation(
            "conservation",
            "lost 3 bytes",
            time=12.5,
            seed=42,
            schedule={"events": [("drop", 1.0)]},
            trail=["a", "b"],
        )
        back = pickle.loads(pickle.dumps(exc))
        assert back.invariant == "conservation"
        assert back.detail == "lost 3 bytes"
        assert back.time == 12.5
        assert back.seed == 42
        assert back.schedule == {"events": [("drop", 1.0)]}
        assert back.trail == ["a", "b"]


class TestSweepFanOut:
    def test_sharded_sweep_matches_serial(self):
        sizes = [1024, 4096]
        # Plain strategy *names*, exactly what the CLI hands over —
        # they pickle, unlike closures.
        strategies = {"hetero_split": "hetero_split"}
        serial = sweep_oneway("t", sizes, strategies, metric="latency")
        sharded = sweep_oneway(
            "t", sizes, strategies, metric="latency", jobs=2
        )
        assert [s.label for s in sharded.series] == [
            s.label for s in serial.series
        ]
        for a, b in zip(sharded.series, serial.series):
            assert a.values == b.values

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_oneway("t", [1024], {}, metric="goodput", jobs=2)
