"""Host hardware models: cores, CPU topology, nodes.

The paper's multicore effect is entirely about *CPU occupancy*: PIO copies
monopolize the issuing core, so on one core they serialize (Fig. 4a) while
spread over idle cores they overlap (Fig. 4c).  A :class:`Core` is thus a
capacity-1 FIFO resource in virtual time with occupancy accounting, and a
:class:`Machine` is a set of cores arranged in a (possibly hierarchical)
:class:`CpuTopology` — two dual-core sockets for the paper's testbed.
"""

from repro.hardware.core import Core
from repro.hardware.topology import CpuTopology
from repro.hardware.machine import Machine

__all__ = ["Core", "CpuTopology", "Machine"]
