"""Observability wired through a live cluster.

The two contract tests the subsystem exists for:

* enabling observability moves **no simulated timestamp** — the hooks
  are purely passive;
* prediction accuracy is ~exact (< 1e-6 relative) on a fault-free
  grid-aligned run, and nonzero-but-reproducible once a rail is
  silently degraded under the stale estimator.
"""

import json

import pytest

from repro.api import ClusterBuilder, FaultSchedule, load_cluster
from repro.hardware.topology import CpuTopology
from repro.obs import (
    DEFAULT_TRACE_LIMIT,
    Observability,
    Tracer,
    validate_chrome_trace,
)
from repro.util.errors import ConfigurationError


def _flapping_schedule():
    return FaultSchedule(seed=11).flapping(
        "node0.myri10g0", period=400.0, duty=0.5, start=100.0, cycles=4
    )


def _run_testbed(observability: bool, faults: bool = False):
    builder = ClusterBuilder.paper_testbed(strategy="hetero_split")
    if observability:
        builder.observability()
    if faults:
        builder.faults(_flapping_schedule()).resilience(timeout="200us")
    cluster = builder.build()
    a, b = cluster.sessions("node0", "node1")
    msgs = []
    for size in ("4K", "64K", "1M", "4M"):
        b.irecv(source="node0")
        msgs.append(a.isend("node1", size))
        a.irecv(source="node1")
        msgs.append(b.isend("node0", size))
    cluster.run()
    return cluster, msgs


def _timestamps(cluster, msgs):
    return (
        cluster.sim.now,
        cluster.sim.events_processed,
        tuple((m.t_post, m.t_complete, m.status.value) for m in msgs),
    )


class TestZeroPerturbation:
    def test_enabled_run_is_bit_identical_to_disabled(self):
        base = _timestamps(*_run_testbed(observability=False))
        instrumented = _timestamps(*_run_testbed(observability=True))
        assert base == instrumented

    def test_enabled_faulty_run_is_bit_identical_to_disabled(self):
        base = _timestamps(*_run_testbed(observability=False, faults=True))
        instrumented = _timestamps(*_run_testbed(observability=True, faults=True))
        assert base == instrumented

    def test_default_build_is_off(self):
        cluster = ClusterBuilder.paper_testbed().build()
        assert cluster.obs.on is False
        assert cluster.metrics_snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestChromeTraceFromCluster:
    def test_healthy_trace_validates(self):
        cluster, _ = _run_testbed(observability=True)
        trace = cluster.chrome_trace()
        assert len(trace["traceEvents"]) > 20
        assert validate_chrome_trace(trace) == []

    def test_faulty_trace_validates(self):
        """Retries and aborted transfers must still close every async
        span (the degraded-completion path ends message spans too)."""
        cluster, _ = _run_testbed(observability=True, faults=True)
        assert validate_chrome_trace(cluster.chrome_trace()) == []

    def test_fault_and_retry_events_present(self):
        cluster, _ = _run_testbed(observability=True, faults=True)
        names = {ev["name"] for ev in cluster.obs.tracer.events}
        assert "fault:down" in names and "fault:up" in names
        assert "retry" in names


class TestMetricsFromCluster:
    def test_counters_reflect_traffic(self):
        cluster, msgs = _run_testbed(observability=True)
        snap = cluster.metrics_snapshot()
        c = snap["counters"]
        assert c["engine.node0.messages_sent"] == 4
        assert c["engine.node0.messages_completed"] == 4
        total_bytes = sum(m.size for m in msgs) / 2  # per direction
        assert c["engine.node0.bytes_sent"] == total_bytes
        assert snap["gauges"]["sim.now_us"] == cluster.sim.now
        assert snap["histograms"]["engine.node0.message_latency_us"]["count"] == 4

    def test_fault_counters(self):
        cluster, _ = _run_testbed(observability=True, faults=True)
        c = cluster.metrics_snapshot()["counters"]
        assert c["faults.fired"] == 8
        assert c["faults.down"] == 4
        assert c.get("engine.node0.retries_issued", 0) > 0


def _accuracy_cluster(faults: bool):
    builder = ClusterBuilder(strategy="hetero_split")
    builder.add_node("node0", topology=CpuTopology.paper_testbed())
    builder.add_node("node1", topology=CpuTopology.paper_testbed())
    builder.add_rail("myri10g", "node0", "node1")
    builder.add_rail("myri10g", "node0", "node1")
    builder.observability()
    if faults:
        builder.faults(
            FaultSchedule(seed=3).degrade(
                "node0.myri10g0", at=0.0, bw_factor=0.5, extra_latency=2.0
            )
        )
    cluster = builder.build()
    a, b = cluster.sessions("node0", "node1")
    for size in ("4K", "16K", "2M", "8M"):
        b.irecv(source="node0")
        a.isend("node1", size)
        cluster.run()
    return cluster


class TestPredictionAccuracy:
    def test_fault_free_error_below_1e6(self):
        """Grid-aligned chunks on identical rails: the sampled estimator
        is exact, so per-rail mean relative error is float noise."""
        snap = _accuracy_cluster(faults=False).accuracy_snapshot()
        assert snap["samples"] >= 4
        for rail, stats in snap["per_rail"].items():
            assert stats["transfer"]["mean_abs_rel_error"] < 1e-6, rail

    def test_degraded_rail_has_nonzero_reproducible_error(self):
        snap1 = _accuracy_cluster(faults=True).accuracy_snapshot()
        snap2 = _accuracy_cluster(faults=True).accuracy_snapshot()
        assert json.dumps(snap1, sort_keys=True) == json.dumps(
            snap2, sort_keys=True
        )
        degraded = snap1["per_rail"]["node0.myri10g0"]["transfer"]
        assert degraded["mean_abs_rel_error"] > 1e-8

    def test_resample_keeps_accuracy_bound(self):
        """After resample() the fresh predictor must be re-bound to the
        obs hub (regression: silently losing telemetry)."""
        cluster = _accuracy_cluster(faults=False)
        before = cluster.accuracy_snapshot()["samples"]
        cluster.resample("node0.myri10g0", blend=1.0)
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        a.isend("node1", "2M")
        cluster.run()
        assert cluster.accuracy_snapshot()["samples"] > before


class TestConfigAndBuilder:
    def _config(self, observability):
        return {
            "nodes": [{"name": "node0"}, {"name": "node1"}],
            "rails": [{"driver": "myri10g", "between": ["node0", "node1"]}],
            "observability": observability,
        }

    def test_config_true_enables(self):
        cluster = load_cluster(self._config(True))
        assert cluster.obs.on is True

    def test_config_false_disables(self):
        assert load_cluster(self._config(False)).obs.on is False

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            load_cluster(self._config({"tracer": True}))

    def test_config_rejects_bad_type(self):
        with pytest.raises(ConfigurationError):
            load_cluster(self._config("yes"))

    def test_explicit_bounds_are_honoured(self):
        """A tracer built alone takes its limit; the bundle's is the
        default."""
        assert Tracer(3).limit == 3
        assert Tracer(None).limit is None
        assert Observability().tracer.limit == DEFAULT_TRACE_LIMIT

    def test_shared_hub_across_engines(self):
        """One hook stream per cluster, all four obs surfaces on it."""
        cluster = ClusterBuilder.paper_testbed().observability().build()
        hubs = {id(engine.hooks) for engine in cluster.engines.values()}
        assert hubs == {id(cluster.hooks)}
        for machine in cluster.machines.values():
            for nic in machine.nics:
                assert nic.hooks is cluster.hooks
        obs = cluster.obs
        assert cluster.hooks.subscribers == (
            obs.tracer, obs.metrics, obs.accuracy, obs.collectives
        )
