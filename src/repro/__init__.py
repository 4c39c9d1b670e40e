"""repro — a multicore-enabled multirail communication engine, reproduced.

A complete Python reproduction of Brunet, Trahay & Denis, *A
multicore-enabled multirail communication engine* (IEEE CLUSTER 2008),
running the NewMadeleine/PIOMan/Marcel stack over a deterministic
discrete-event simulator instead of the paper's Myri-10G + Quadrics
testbed.

Ninety-second tour::

    from repro.api import ClusterBuilder
    from repro.util.units import MiB

    cluster = ClusterBuilder.paper_testbed(strategy="hetero_split").build()
    node0, node1 = cluster.session("node0"), cluster.session("node1")
    node1.irecv(source="node0")
    msg = node0.isend("node1", 4 * MiB)
    cluster.run()
    print(msg.latency, msg.rails_used, msg.chunk_sizes)

Package map: :mod:`repro.simtime` (event kernel), :mod:`repro.hardware`
(cores/nodes), :mod:`repro.networks` (rails), :mod:`repro.threading` +
:mod:`repro.pioman` (Marcel/PIOMan runtime), :mod:`repro.core`
(NewMadeleine: sampling, prediction, splitting, strategies, engine),
:mod:`repro.api` (clusters, sessions, MPI layer), :mod:`repro.obs` (the
hook stream and its subscribers: tracer, metrics, timelines),
:mod:`repro.bench` (experiments; also ``python -m repro.bench.cli``).
See DESIGN.md and EXPERIMENTS.md at the repository root.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
