"""Determinism under the fast-path kernel: two identical runs, one trace.

The tuple-heap event queue, the scalar sample-table path and the
split-decision cache must not move a single simulated timestamp: a
Fig. 1-style stream is run twice on identical inputs and the *full*
observable trace — post/complete instants, latencies, per-NIC busy
intervals — must match bit for bit.
"""

import pytest

from repro.bench.runners import build_paper_cluster, default_profiles
from repro.bench.workloads import mixed_stream, run_stream, uniform_stream
from repro.core.strategies import HeteroSplitStrategy
from repro.obs import Timeline
from repro.util.units import KiB, MiB


def _trace(stream_spec):
    """One fresh cluster + stream; returns every observable timestamp."""
    cluster = build_paper_cluster(
        HeteroSplitStrategy(rdv_threshold=32 * KiB), profiles=default_profiles()
    )
    machine = cluster.machines["node0"]
    timeline = Timeline.record(machine)
    result = run_stream(cluster, stream_spec)
    lanes = {
        f"nic:{nic.name}": [
            (iv.start, iv.end, iv.label) for iv in timeline.intervals(f"nic:{nic.name}")
        ]
        for nic in machine.nics
    }
    return {
        "posts": [m.t_post for m in result.messages],
        "completions": [m.t_complete for m in result.messages],
        "latencies": [m.latency for m in result.messages],
        "makespan": result.makespan_us,
        "final_now": cluster.sim.now,
        "lanes": lanes,
    }


class TestDoubleRunBitIdentity:
    def test_fig1_style_stream_is_bit_identical(self):
        spec = uniform_stream(4, 2 * MiB)
        assert _trace(spec) == _trace(spec)

    def test_mixed_size_stream_is_bit_identical(self):
        spec = mixed_stream(
            [64 * KiB, 256 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 96 * KiB],
            interval=250.0,
        )
        assert _trace(spec) == _trace(spec)

    def test_warm_plan_cache_does_not_shift_timestamps(self):
        """Run the same stream twice on ONE cluster's profile set; the
        second build reuses memoized estimators (and any plan-cache warm
        state inside them must be invisible in the trace)."""
        spec = uniform_stream(3, 1 * MiB, interval=100.0)
        first = _trace(spec)
        second = _trace(spec)
        third = _trace(spec)
        assert first == second == third


class TestObservabilityDeterminism:
    """Telemetry itself must be deterministic: a faulty, fully
    instrumented cluster run twice yields byte-identical metrics
    snapshots and Chrome trace JSON."""

    @staticmethod
    def _faulty_instrumented_run():
        import itertools
        import json

        import repro.core.packets as packets
        import repro.networks.transfer as transfer
        from repro.api import ClusterBuilder, FaultSchedule
        from repro.obs import dumps_chrome_trace

        # Message/transfer ids come from process-global allocators; the
        # trace embeds them, so rewind both to mimic a fresh process.
        packets._msg_seq = itertools.count()
        transfer._transfer_ids = itertools.count()

        schedule = FaultSchedule(seed=11).flapping(
            "node0.myri10g0", period=400.0, duty=0.5, start=100.0, cycles=4
        )
        cluster = (
            ClusterBuilder.paper_testbed(strategy="hetero_split")
            .observability()
            .faults(schedule)
            .resilience(timeout="200us")
            .build()
        )
        a, b = cluster.sessions("node0", "node1")
        for size in (4 * KiB, 64 * KiB, 1 * MiB, 4 * MiB):
            b.irecv(source="node0")
            a.isend("node1", size)
            a.irecv(source="node1")
            b.isend("node0", size)
        cluster.run()
        metrics_json = json.dumps(cluster.metrics_snapshot(), sort_keys=True)
        accuracy_json = json.dumps(cluster.accuracy_snapshot(), sort_keys=True)
        trace_json = dumps_chrome_trace(cluster.obs.tracer)
        return metrics_json, accuracy_json, trace_json

    def test_faulty_run_telemetry_is_byte_identical(self):
        first = self._faulty_instrumented_run()
        second = self._faulty_instrumented_run()
        assert first[0] == second[0]  # metrics snapshot
        assert first[1] == second[1]  # accuracy snapshot
        assert first[2] == second[2]  # chrome trace JSON


@pytest.mark.parametrize("size", [64 * KiB, 1 * MiB, 8 * MiB])
def test_single_transfer_reruns_identically(size):
    from repro.bench.runners import measure_oneway

    def latency():
        cluster = build_paper_cluster(
            HeteroSplitStrategy(rdv_threshold=32 * KiB),
            profiles=default_profiles(),
        )
        return measure_oneway(cluster, size).latency

    assert latency() == latency()
