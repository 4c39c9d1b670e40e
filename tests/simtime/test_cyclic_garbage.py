"""Runs leave no cyclic garbage: what lets ``Simulator.run`` hold the
collector's full passes until it returns.

A run keeps its messages, their events and transfers alive until it
ends, so a full pass inside it re-scans live records.  That it also
frees nothing a young pass or the deferred full pass would miss is
pinned here: with automatic collection off, ``gc.collect()`` right
after each ``run()`` finds no cyclic garbage made by the run.  The
episodes are those of the event-count and hook goldens, reused, and
plain ``hetero_split`` rendezvous sends.

The named exception is calibration re-sampling (``cal_silent_degrade``):
the online re-sampler builds a side simulator per probe inside the run,
and each becomes a cycle when it is dropped.  Young passes inside the
run reclaim those, so the deferral does not keep them alive; the
exception also shows this test can see a cycle.
"""

import gc

import pytest

from repro.api import ClusterBuilder
from repro.api.cluster import Cluster
from tests.obs import test_hook_golden as hook_golden
from tests.simtime import test_event_count_golden as event_golden


@pytest.fixture
def garbage_after_runs(monkeypatch):
    """Automatic collection off; around every ``Cluster.run``, a
    ``gc.collect()`` before it (set-up garbage, such as the side
    simulators of a sampling pass at build time, does not count) and one
    right after it, whose counts are yielded."""
    found = []
    run = Cluster.run

    def counted(cluster, until=None):
        gc.collect()
        try:
            return run(cluster, until)
        finally:
            found.append(gc.collect())

    monkeypatch.setattr(Cluster, "run", counted)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield found
    finally:
        if enabled:
            gc.enable()


def hetero_split_rendezvous():
    cluster = ClusterBuilder.paper_testbed(strategy="hetero_split").build()
    sender, receiver = cluster.sessions("node0", "node1")
    for size in ("64K", "256K", "1M", "4M", "8M"):
        receiver.irecv(source="node0")
        sender.isend("node1", size)
    cluster.run()


def hook_scenario(name):
    return lambda: hook_golden.run(name)


#: one episode of each kind the benchmark and the chaos soaks drive
EPISODES = {
    "adaptive_eager_storm": event_golden.eager_storm,
    "hetero_split_rendezvous": hetero_split_rendezvous,
    "flat16_auto_alltoall": event_golden.flat16_alltoall,
    "fat_tree8_alltoallv_obs": hook_scenario("rails_alltoallv_fat_tree8"),
    "flapping_rail_retries": event_golden.flapping_hetero,
    "spine_outage_replan": hook_scenario("spine_outage_replan"),
}


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_run_leaves_no_cyclic_garbage(garbage_after_runs, name):
    EPISODES[name]()
    assert garbage_after_runs and set(garbage_after_runs) == {0}


def test_resampling_side_simulators_are_cyclic_garbage(garbage_after_runs):
    hook_scenario("cal_silent_degrade")()
    assert sum(garbage_after_runs) > 0
