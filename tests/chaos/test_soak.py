"""Soak runner: clean windows, determinism, byte-identical exports."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core.strategies import strategy_registry
from repro.faults import ChaosSchedule, run_scenario, soak
from repro.faults.chaos import (
    CHAOS_MAX_RETRIES,
    CHAOS_TIMEOUT,
    _reset_id_counters,
    _seeded_workload,
)


class TestSoakWindow:
    def test_fixed_window_is_clean(self):
        report = soak(10)
        assert len(report.scenarios) == 10
        assert report.violations == []
        assert report.scenarios_per_sec > 0
        assert "10 scenario(s), 10 clean, 0 violation(s)" in report.summary()

    def test_report_serializes(self):
        report = soak(3)
        d = json.loads(json.dumps(report.to_dict()))
        assert d["scenarios"] == 3
        assert d["violations"] == 0
        assert len(d["results"]) == 3

    def test_soak_without_invariants_runs_same_scenarios(self):
        on = soak(4)
        off = soak(4, invariants=False)
        for a, b in zip(on.scenarios, off.scenarios):
            assert a.seed == b.seed
            assert a.elapsed_us == b.elapsed_us
            assert a.messages_completed == b.messages_completed
            assert a.faults_fired == b.faults_fired
            assert b.checks_performed == 0

    def test_explicit_seed_iterable(self):
        report = soak([3, 5, 8])
        assert [s.seed for s in report.scenarios] == [3, 5, 8]

    @pytest.mark.parametrize("name", sorted(strategy_registry))
    def test_ci_window_is_clean_for_every_strategy(self, name):
        report = soak(50, strategy=name)
        assert len(report.scenarios) == 50
        assert report.violations == []


class TestCounters:
    def test_paper_counters_sum_over_both_engines(self, monkeypatch):
        """Seed 54's receiver (node1) retries too; the result counts
        every engine's retries, not only the sender's."""
        built = []
        build = ClusterBuilder.build

        def keep(self):
            built.append(build(self))
            return built[-1]

        monkeypatch.setattr(ClusterBuilder, "build", keep)
        result = run_scenario(54)
        engines = list(built[0].engines.values())
        retries = [e.retries_issued for e in engines]
        assert len(retries) == 2 and all(retries)
        assert result.retries_issued == sum(retries) == 6
        assert result.messages_sent == sum(e.messages_sent for e in engines)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_scenario(5).to_dict()
        b = run_scenario(5).to_dict()
        assert a == b

    def test_scenarios_are_isolated_from_history(self):
        # A scenario's result must not depend on what ran before it in
        # this process (the id-counter reset at work).
        alone = run_scenario(9).to_dict()
        soak(4)
        after_soak = run_scenario(9).to_dict()
        assert alone == after_soak

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_any_seed_is_deterministic(self, seed):
        assert run_scenario(seed).to_dict() == run_scenario(seed).to_dict()


def _instrumented_exports(seed):
    """One chaos scenario with full observability; all exports as JSON."""
    chaos = ChaosSchedule(seed)
    _reset_id_counters()
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=default_profiles(("myri10g", "quadrics")))
        .resilience(timeout=CHAOS_TIMEOUT, max_retries=CHAOS_MAX_RETRIES)
        .invariants()
        .observability()
        .faults(chaos.schedule())
        .build()
    )
    cluster.invariants.bind_context(seed=seed, schedule=chaos.to_json())
    _seeded_workload(cluster, chaos, seed)
    cluster.run()
    cluster.check_drain()
    return {
        "metrics": json.dumps(cluster.metrics_snapshot(), sort_keys=True),
        "accuracy": json.dumps(cluster.accuracy_snapshot(), sort_keys=True),
        "trace": json.dumps(cluster.chrome_trace(), sort_keys=True),
        "invariants": json.dumps(cluster.invariants.snapshot(), sort_keys=True),
    }


class TestExportBitIdentity:
    def test_same_seed_byte_identical_exports(self):
        first = _instrumented_exports(4)
        second = _instrumented_exports(4)
        assert first["metrics"] == second["metrics"]
        assert first["accuracy"] == second["accuracy"]
        assert first["trace"] == second["trace"]
        assert first["invariants"] == second["invariants"]

    def test_different_seeds_diverge(self):
        assert (
            _instrumented_exports(4)["trace"]
            != _instrumented_exports(6)["trace"]
        )
