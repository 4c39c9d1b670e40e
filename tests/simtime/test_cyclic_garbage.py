"""A dropped world is freed by reference counting: no part holds its owner.

A built world is a tree of owners and parts (cluster, engines, NICs,
obs surfaces, every message and transfer); each link back from a part
to its owner is plain values or a ``weakref.ref``
(``docs/architecture.md``, "Ownership").  So dropping the last
reference to a ``Cluster`` or an ``MpiWorld`` frees the whole world at
once, and no finished episode waits as cyclic garbage for a full
collector pass.

Each episode here builds, runs and drops its world with automatic
collection off; ``gc.collect()`` must then find nothing.  A failure
names the ``Type.attribute -> Type`` edges inside every cycle it found.
Running the module as a script prints those edges for each episode.

What stays cyclic is named with its own assertion: a world stopped by
``run(until=)`` keeps the callbacks still on its heap, and each holds a
part that holds the simulator; and a transfer lost on a send that was
given up on before it was retried keeps its message, which keeps it.
"""

import gc
import sys
import types
from collections import deque

import pytest

from repro.api import ClusterBuilder
from repro.api.collectives import moe_matrix
from repro.api.mpi import MpiWorld
from repro.core.strategies.base import Strategy
from repro.faults.chaos import run_scenario
from repro.hardware.topology import Fabric
from repro.obs.collective import measured_hop_table
from repro.util.units import KiB
from tests.obs import test_hook_golden as hook_golden
from tests.simtime import test_event_count_golden as event_golden

#: objects that only carry a reference between two named objects
_CARRIERS = (
    list, tuple, dict, set, frozenset, deque,
    types.FunctionType, types.MethodType, types.CellType,
    types.FrameType, types.GeneratorType,
)


def _named(obj) -> bool:
    return not isinstance(obj, _CARRIERS) and not isinstance(obj, type)


def _attributes(obj):
    """``(name, value)`` of every instance attribute, slots included."""
    yield from getattr(obj, "__dict__", {}).items()
    for cls in type(obj).__mro__:
        for slot in cls.__dict__.get("__slots__", ()):
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                yield slot, cls.__dict__[slot].__get__(obj, cls)
            except AttributeError:
                pass


def cycle_edges(garbage) -> list:
    """The ``Type.attribute -> Type`` edges inside the cycles of
    ``garbage``: between named objects (not containers, functions,
    cells, bound methods, frames or generators, which only carry a
    reference), each edge named by the attribute it leaves through."""
    ids = {id(o): o for o in garbage}
    named = [o for o in garbage if _named(o)]
    edges = {}
    for obj in named:
        out = edges[id(obj)] = []
        for attr, value in _attributes(obj):
            if id(value) not in ids:
                continue
            seen = {id(value)}
            todo = [value]
            while todo:
                node = todo.pop()
                if _named(node):
                    out.append((attr, node))
                    continue
                for ref in gc.get_referents(node):
                    if id(ref) in ids and id(ref) not in seen:
                        seen.add(id(ref))
                        todo.append(ref)
    # Tarjan's strongly connected components over the named graph
    index, low, stack, on_stack, sccs = {}, {}, [], set(), []
    for root in named:
        if id(root) in index:
            continue
        work = [(root, iter(edges[id(root)]))]
        index[id(root)] = low[id(root)] = len(index)
        stack.append(root)
        on_stack.add(id(root))
        while work:
            node, it = work[-1]
            for _, succ in it:
                if id(succ) not in index:
                    index[id(succ)] = low[id(succ)] = len(index)
                    stack.append(succ)
                    on_stack.add(id(succ))
                    work.append((succ, iter(edges[id(succ)])))
                    break
                if id(succ) in on_stack:
                    low[id(node)] = min(low[id(node)], index[id(succ)])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[id(parent)] = min(low[id(parent)], low[id(node)])
                if low[id(node)] == index[id(node)]:
                    scc = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(id(member))
                        scc.add(id(member))
                        if member is node:
                            break
                    sccs.append(scc)
    found = set()
    for scc in sccs:
        for member in scc:
            obj = ids[member]
            for attr, succ in edges[member]:
                if id(succ) in scc:
                    found.add(
                        f"{type(obj).__name__}.{attr} -> {type(succ).__name__}"
                    )
    return sorted(found)


def dropped_world_garbage(episode):
    """Run ``episode`` with automatic collection off and drop what it
    returns; ``(objects gc.collect() then found, the edges of their
    cycles)``.  Garbage made before the episode does not count."""
    enabled = gc.isenabled()
    gc.disable()
    flags = gc.get_debug()
    try:
        gc.collect()
        episode()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        found = gc.collect()
        edges = cycle_edges(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found, edges


def hetero_split_rendezvous():
    cluster = ClusterBuilder.paper_testbed(strategy="hetero_split").build()
    sender, receiver = cluster.sessions("node0", "node1")
    for size in ("64K", "256K", "1M", "4M", "8M"):
        receiver.irecv(source="node0")
        sender.isend("node1", size)
    cluster.run()


def hook_scenario(name):
    return lambda: hook_golden.run(name)


def fat_tree8_alltoallv_obs_report():
    """An 8-rank fat-tree MoE alltoallv with the obs bundle, then the
    ``cli obs report`` read-out (metrics, collective snapshot, Chrome
    trace, selector calibration)."""
    world = MpiWorld.create(
        fabric=Fabric.fat_tree(8, rails=("myri10g", "quadrics")),
        observability=True,
    )
    matrix = moe_matrix(8, 16 * KiB, hot=[1, 6], skew=4)

    def program(comm):
        yield from comm.alltoallv(matrix, algorithm="auto")

    world.spawn_all(program)
    world.run()
    cluster = world.cluster
    cluster.metrics_snapshot()
    coll = cluster.obs.collectives.snapshot()
    cluster.chrome_trace()
    world.selector().calibrate(measured_hop_table(coll["hops"]))


def chaos_scenario():
    """One chaos soak scenario with the invariant monitor armed."""
    assert run_scenario(2, invariants=True).ok


#: one episode of each kind the benchmark, the obs read-out and the
#: chaos soaks drive
EPISODES = {
    "adaptive_eager_storm": event_golden.eager_storm,
    "hetero_split_rendezvous": hetero_split_rendezvous,
    "flat16_auto_alltoall": event_golden.flat16_alltoall,
    "fat_tree8_alltoallv_obs": hook_scenario("rails_alltoallv_fat_tree8"),
    "flapping_rail_retries": event_golden.flapping_hetero,
    "spine_outage_replan": hook_scenario("spine_outage_replan"),
    "fat_tree8_alltoallv_obs_report": fat_tree8_alltoallv_obs_report,
    "chaos_scenario_monitored": chaos_scenario,
}


def _explain(found, edges) -> str:
    return f"{found} objects in cycles through: " + (
        "; ".join(edges) or "no named object"
    )


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_dropped_world_leaves_no_cyclic_garbage(name):
    found, edges = dropped_world_garbage(EPISODES[name])
    assert found == 0, _explain(found, edges)


def test_resampling_side_simulators_are_freed():
    """The drift loop's re-sampler builds a side simulator per probe
    inside the run; each is freed when the probe returns."""
    found, edges = dropped_world_garbage(hook_scenario("cal_silent_degrade"))
    assert found == 0, _explain(found, edges)


def test_planted_back_reference_is_named(monkeypatch):
    """This check sees a cycle: a strategy that stores its engine
    strongly inside the run closes one, and the failure names the edge."""
    schedule_outlist = Strategy.schedule_outlist

    def planted(strategy):
        strategy.owner = strategy.engine
        schedule_outlist(strategy)

    monkeypatch.setattr(Strategy, "schedule_outlist", planted)
    found, edges = dropped_world_garbage(hetero_split_rendezvous)
    assert found > 0
    assert "HeteroSplitStrategy.owner -> NmadEngine" in edges
    assert "NmadEngine.strategy -> HeteroSplitStrategy" in edges


def test_world_stopped_mid_run_stays_cyclic():
    """``run(until=)`` leaves callbacks on the heap; each holds a part
    (a NIC, a core) that holds the simulator, so that world waits for
    the collector."""

    def stopped():
        cluster = ClusterBuilder.paper_testbed(strategy="hetero_split").build()
        sender, receiver = cluster.sessions("node0", "node1")
        receiver.irecv(source="node0")
        sender.isend("node1", "4M")
        cluster.run(until=100.0)

    found, edges = dropped_world_garbage(stopped)
    assert found > 0
    assert any(edge.endswith("-> Simulator") for edge in edges)


def test_degraded_send_keeps_its_unretried_lost_transfer():
    """A transfer lets go of its message once it is processed or
    replaced; one lost when its send ran out of retries is neither, so
    that message and transfer stay a cycle (chaos seed 28: one rendezvous
    chunk aborted with the retry budget spent)."""
    found, edges = dropped_world_garbage(
        lambda: run_scenario(28, invariants=True)
    )
    assert found > 0
    assert edges == ["Message.transfers -> Transfer", "Transfer.message -> Message"]


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(EPISODES) + ["cal_silent_degrade"]
    for name in names:
        episode = EPISODES.get(name) or hook_scenario(name)
        found, edges = dropped_world_garbage(episode)
        print(f"{name}: {found} objects")
        for edge in edges:
            print(f"  {edge}")
