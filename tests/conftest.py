"""Shared fixtures: two-node multirail testbeds mirroring the paper's."""

import pytest

from repro.hardware import Machine
from repro.networks import Nic, Wire, rail_profile
from repro.simtime import Simulator


@pytest.fixture
def sim():
    return Simulator()


def wire_pair(sim, profiles, node_names=("node0", "node1")):
    """Build two machines joined by one rail per profile.

    Returns ``(node_a, node_b)``; rail *i* connects ``node_a.nics[i]`` to
    ``node_b.nics[i]`` and both ends share the profile.
    """
    node_a = Machine(sim, node_names[0])
    node_b = Machine(sim, node_names[1])
    for i, profile in enumerate(profiles):
        name = f"{profile.name}{i}"
        Wire(Nic(node_a, profile, name=name), Nic(node_b, profile, name=name))
    return node_a, node_b


@pytest.fixture
def paper_pair(sim):
    """The paper's testbed: two dual dual-core nodes, Myri-10G + Quadrics."""
    return wire_pair(sim, [rail_profile("myri10g"), rail_profile("quadrics")])


@pytest.fixture
def single_rail_pair(sim):
    """Two nodes joined by a single Myri-10G rail."""
    return wire_pair(sim, [rail_profile("myri10g")])
