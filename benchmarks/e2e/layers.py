"""Attribute a ``cProfile`` run's self time to the simulator's layers.

A function belongs to the layer its source file sits in (``LAYER_OF``
prefixes, matched against the path below ``src/repro/``).  C built-ins
(``max``, ``heapq.heappush``, a generator's ``send``...) and generated
code (dataclass ``__init__``, filename ``<string>``) have no file of
their own: their self time is split across the layers of their callers
in proportion to the self time each caller edge accounts for.  Anything
else — the standard library, this benchmark's own code — is ``other``.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from typing import Dict, Tuple

#: source-path prefix (below src/repro/) -> layer; the first match wins
LAYER_OF: Tuple[Tuple[str, str], ...] = (
    ("simtime/", "simtime"),
    ("core/strategies/", "core.strategies"),
    ("core/prediction.py", "core.prediction"),
    ("core/split.py", "core.split"),
    ("core/estimator.py", "core.estimator"),
    ("core/sampling.py", "core.estimator"),
    ("core/invariants.py", "core.invariants"),
    ("core/engine.py", "core.engine"),
    ("core/scheduler.py", "core.engine"),
    ("core/packets.py", "core.engine"),
    ("core/rendezvous.py", "core.engine"),
    ("networks/switch.py", "networks.switch"),
    ("networks/", "networks.nic"),
    ("hardware/", "hardware"),
    ("pioman/", "pioman"),
    ("threading/", "pioman"),
    ("api/collectives.py", "api.collectives"),
    ("api/mpi.py", "api.collectives"),
    ("api/", "api.cluster"),
    ("faults/", "faults"),
    ("obs/", "obs"),
    ("trace/", "obs"),
    ("util/", "util"),
)

LAYERS: Tuple[str, ...] = (
    "simtime",
    "core.engine",
    "core.strategies",
    "core.prediction",
    "core.split",
    "core.estimator",
    "networks.nic",
    "networks.switch",
    "hardware",
    "pioman",
    "api.collectives",
    "api.cluster",
    "faults",
    "core.invariants",
    "obs",
    "util",
    "other",
)

_MARK = "/src/repro/"


def file_layer(filename: str) -> str:
    """Layer of a source file, or ``""`` for code without one."""
    if filename == "~" or filename.startswith("<"):
        return ""
    path = filename.replace("\\", "/")
    cut = path.rfind(_MARK)
    if cut < 0:
        return "other"
    rel = path[cut + len(_MARK):]
    for prefix, layer in LAYER_OF:
        if rel.startswith(prefix):
            return layer
    return "other"


def attribute(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "share", "calls"}}`` for every layer.

    ``calls`` counts calls that enter a layer from a different one, read
    from the caller edges; calls into file-less code are not crossings.
    """
    raw = stats.stats  # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    memo: Dict[tuple, Dict[str, float]] = {}

    def owner(func) -> Dict[str, float]:
        """Layer weights of ``func``'s self time (they sum to 1)."""
        if func in memo:
            return memo[func]
        own = file_layer(func[0])
        callers = raw[func][4] if func in raw else {}
        if own or not callers:
            memo[func] = {own or "other": 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # breaks caller cycles among built-ins
        tt_total = sum(edge[2] for edge in callers.values())
        nc_total = sum(edge[0] for edge in callers.values())
        weights: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            share = (
                edge[2] / tt_total if tt_total > 0
                else edge[0] / nc_total if nc_total > 0
                else 1.0 / len(callers)
            )
            for name, w in owner(caller).items():
                weights[name] += share * w
        memo[func] = dict(weights)
        return memo[func]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for func, (_cc, _nc, tt, _ct, callers) in raw.items():
        for name, w in owner(func).items():
            self_s[name] += tt * w
        own = file_layer(func[0])
        if not own:
            continue
        for caller, edge in callers.items():
            src = max(owner(caller).items(), key=lambda kv: kv[1])[0]
            if src != own:
                calls[own] += edge[0]
    total = sum(self_s.values())
    return {
        name: {
            "self_s": self_s.get(name, 0.0),
            "share": self_s.get(name, 0.0) / total if total > 0 else 0.0,
            "calls": calls.get(name, 0),
        }
        for name in LAYERS
    }
