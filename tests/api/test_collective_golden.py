"""Golden schedules: every collective algorithm's exact message log.

Each case runs one collective on a fresh world and reduces the sorted
``(src, dest, tag, size, t_post, t_complete)`` log of every message to
a SHA-256 digest, next to the final simulated instant.  The fixture
``collective_golden.json`` pins those values, so any change to a
schedule's messages, tags or timing fails here — including schedules
the end-to-end benchmark never reaches.  Each run's rank pairs are also
checked against the feasibility record, ``required_pairs``.  A second
section pins the algorithm name the collective profiler records for
every case.

Regenerate the fixture only when a schedule change is intended::

    PYTHONPATH=src python tests/api/test_collective_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.api import ClusterBuilder, Fabric
from repro.api import collectives as coll
from repro.api.collectives import VALID_ALGORITHMS
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.obs import CollectiveProfiler
from repro.util.units import MiB

FIXTURE = pathlib.Path(__file__).with_name("collective_golden.json")

WORLDS = (("flat", 2), ("flat", 5), ("flat", 8), ("fat_tree", 8))
SIZES = (0, 100, 1 * MiB)
ROOTED = ("bcast", "gather", "reduce", "scatter")
MATRICES = ("uniform", "moe")


def cases():
    """``(case id, shape, ranks, collective, algorithm, size, arg)``:
    ``arg`` is the root of a rooted collective, the matrix kind of an
    ``alltoallv``, else None."""
    out = []
    schedules = [
        (name, algo)
        for name, algos in VALID_ALGORITHMS.items()
        for algo in algos
        if algo != "auto"
    ] + [("scatter", "linear")]
    for shape, n in WORLDS:
        world = f"{shape}{n}"
        out.append((f"{world}/barrier", shape, n, "barrier", None, 0, None))
        for size in SIZES:
            for name, algo in schedules:
                if name in ROOTED:
                    args = (0, n - 1)
                elif name == "alltoallv":
                    args = MATRICES
                else:
                    args = (None,)
                for arg in args:
                    suffix = "" if arg is None else f"/{arg}"
                    out.append((
                        f"{world}/{name}/{algo}/{size}B{suffix}",
                        shape, n, name, algo, size, arg,
                    ))
    return out


def make_world(shape, n, profiler=None):
    fabric = Fabric.flat(n) if shape == "flat" else Fabric.fat_tree(n)
    cluster = ClusterBuilder("hetero_split").fabric(fabric).sampling(
        profiles=default_profiles()
    ).build()
    if profiler is not None:
        cluster.hooks.subscribe(profiler)
    return MpiWorld.from_cluster(cluster)


def call(comm, name, algo, size, arg):
    """The public call for one case (``algo`` is the explicit choice)."""
    n = comm.size
    if name == "barrier":
        return comm.barrier()
    if name == "scatter":
        return comm.scatter(size, root=arg)
    if name == "alltoallv":
        if arg == "uniform":
            matrix = coll.uniform_matrix(n, size)
        else:
            # hot experts receive ``size`` per source, the rest an eighth
            matrix = coll.moe_matrix(n, size // 8, hot_ranks=min(2, n - 1))
        return comm.alltoallv(matrix, algorithm=algo)
    if name in ROOTED:
        return getattr(comm, name)(size, root=arg, algorithm=algo)
    return getattr(comm, name)(size, algorithm=algo)


def run_case(shape, n, name, algo, size, arg, profiler=None):
    world = make_world(shape, n, profiler=profiler)

    def program(comm):
        yield from call(comm, name, algo, size, arg)

    world.spawn_all(program)
    world.run()
    return world


def digest(world):
    """``{"digest", "now"}`` of one finished world (floats by repr)."""
    log = sorted(
        (m.src, m.dest, m.tag, m.size, m.t_post, m.t_complete)
        for engine in world.cluster.engines.values()
        for m in engine.sent_log
    )
    text = "\n".join(repr(row) for row in log)
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "messages": len(log),
        "now": repr(world.cluster.sim.now),
    }


def sent_pairs(world):
    """Undirected ``(i, j)`` rank pairs, ``i < j``, of every sent message."""
    rank = {world.node_name(r): r for r in range(world.size)}
    return {
        tuple(sorted((rank[m.src], rank[m.dest])))
        for engine in world.cluster.engines.values()
        for m in engine.sent_log
    }


def profiled_algorithms(shape, n, name, algo, size, arg):
    profiler = CollectiveProfiler()
    run_case(shape, n, name, algo, size, arg, profiler=profiler)
    return sorted({op["algorithm"] for op in profiler.ops})


#: profiler names are checked on one mid-sized world at one size
PROFILED_WORLD = "flat5"
PROFILED_SIZE = 100


def profiled_cases():
    return [
        c for c in cases()
        if c[0].startswith(PROFILED_WORLD + "/")
        and (c[3] == "barrier" or c[5] == PROFILED_SIZE)
    ]


def generate():
    return {
        "schedules": {
            cid: digest(run_case(*rest)) for cid, *rest in cases()
        },
        "profiler": {
            cid: profiled_algorithms(*rest) for cid, *rest in profiled_cases()
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["schedules"]) == sorted(c[0] for c in cases())
    assert sorted(golden["profiler"]) == sorted(c[0] for c in profiled_cases())


@pytest.mark.parametrize(
    "case", cases(), ids=lambda c: c[0]
)
def test_schedule_matches_golden(golden, case):
    cid, shape, n, name, algo, size, arg = case
    world = run_case(shape, n, name, algo, size, arg)
    assert digest(world) == golden["schedules"][cid]
    # The feasibility record is exactly what the run sent.
    if size > 0 and name not in ("barrier", "scatter"):
        root = arg if name in ROOTED else 0
        assert coll.required_pairs(name, algo, n, root) == sent_pairs(world)


@pytest.mark.parametrize(
    "case", profiled_cases(), ids=lambda c: c[0]
)
def test_profiler_algorithm_matches_golden(golden, case):
    cid, *rest = case
    assert profiled_algorithms(*rest) == golden["profiler"][cid]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
