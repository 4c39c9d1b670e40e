"""Declarative cluster construction from dicts / JSON files.

Downstream users describe a testbed once and rebuild it everywhere::

    {
      "strategy": "hetero_split",
      "nodes": [
        {"name": "node0", "sockets": 2, "cores_per_socket": 2},
        {"name": "node1", "sockets": 2, "cores_per_socket": 2}
      ],
      "rails": [
        {"driver": "myri10g",  "between": ["node0", "node1"]},
        {"driver": "quadrics", "between": ["node0", "node1"],
         "overrides": {"wire_latency": 1.5}}
      ],
      "options": {"multicore_rx": true},
      "per_node_strategy": {"node1": "greedy"},
      "sampling": {"profile_file": "profiles.json"},
      "version": 1,
      "faults": {"seed": 7, "events": [
        {"time": 150.0, "nic": "node0.myri10g0", "action": "down"},
        {"time": 650.0, "nic": "node0.myri10g0", "action": "up"}
      ]},
      "resilience": {"timeout": "200us", "max_retries": 8},
      "observability": true,
      "invariants": true,
      "calibration": {"min_samples": 3, "cooldown": 300.0}
    }

Instead of explicit ``nodes`` + ``rails``, a ``fabric`` section
describes an N-node testbed declaratively
(:meth:`repro.hardware.topology.Fabric.from_dict`) — the documented
default being the paper's two-node back-to-back testbed::

    {
      "fabric": {
        "nodes": 2,
        "rails": [{"driver": "myri10g", "kind": "wire"},
                  {"driver": "quadrics", "kind": "wire"}]
      },
      "collectives": {"alltoall": "ring", "bcast": "auto"}
    }

``kind`` may also be ``"switch"`` (one flat contended switch) or
``"fat_tree"`` (two-stage, with ``pod_size``/``spines``).
``collectives`` sets default algorithms for MPI worlds built over the
cluster (:meth:`ClusterBuilder.collectives`; unknown algorithm names
raise with the valid choices listed).

``version`` is optional (defaults to 1).  Unknown versions, and unknown
keys at the top level, in a node or rail entry, in ``options`` and in
every section, raise :class:`ConfigurationError` naming the known keys,
so typos never pass silently.  ``sampling`` is ``true`` (the default:
sample every rail technology at build) or ``{"profile_file": ...}`` (a
saved :class:`~repro.core.sampling.ProfileStore`); every engine plans
with sampled curves, so there is no ``false``.  ``faults`` takes a
schedule in its :meth:`~repro.faults.FaultSchedule.to_dict` form;
``resilience`` maps to :meth:`ClusterBuilder.resilience`.
``observability`` (all four obs surfaces) and ``invariants`` (the
invariant monitor) are ``true`` or ``false``.

``load_cluster(path_or_dict)`` returns a built :class:`Cluster`;
``builder_from_config`` stops one step earlier for callers that want to
tweak the builder programmatically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Set, Union

from repro.api.cluster import Cluster, ClusterBuilder
from repro.core.sampling import ProfileStore
from repro.faults import FaultSchedule
from repro.hardware.topology import CpuTopology, Fabric
from repro.util.errors import ConfigurationError

ConfigSource = Union[str, Path, Dict[str, Any]]

_TOP_LEVEL_KEYS = {
    "version",
    "strategy",
    "nodes",
    "rails",
    "fabric",
    "collectives",
    "options",
    "per_node_strategy",
    "sampling",
    "faults",
    "resilience",
    "observability",
    "invariants",
    "calibration",
}

#: config schema versions this loader understands
_SUPPORTED_VERSIONS = {1}

#: a node's CPU topology keys: any one of them builds its CpuTopology,
#: with the paper's 2 x 2 layout and 3 / 6 µs costs for the others
_TOPOLOGY_KEYS = {
    "sockets", "cores_per_socket", "signal_cost_us", "preempt_cost_us",
}

_NODE_KEYS = {"name", "memcpy_rate"} | _TOPOLOGY_KEYS

_RAIL_KEYS = {"driver", "between", "overrides"}

_OPTIONS_KEYS = {"multicore_rx"}

_SAMPLING_KEYS = {"profile_file"}

_RESILIENCE_KEYS = {"timeout", "max_retries"}

_CALIBRATION_KEYS = {"min_samples", "cooldown"}


def _load_dict(source: ConfigSource) -> Dict[str, Any]:
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read cluster config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc


def _check_keys(name: str, entry: Mapping[str, Any], known: Set[str]) -> None:
    """Raise naming the known keys when ``entry`` has any other."""
    bad = set(entry) - known
    if bad:
        raise ConfigurationError(
            f"unknown {name} keys {sorted(bad)}; known: {sorted(known)}"
        )


def _switch(
    config: Dict[str, Any], name: str, method: Callable[..., ClusterBuilder]
) -> None:
    """Apply one switch: ``true`` or ``false`` is passed to ``method``;
    a missing key or ``null`` leaves it uncalled."""
    value = config.get(name)
    if value is None:
        return
    if not isinstance(value, bool):
        raise ConfigurationError(f"'{name}' must be true or false; got {value!r}")
    method(value)


def builder_from_config(source: ConfigSource) -> ClusterBuilder:
    """Build a :class:`ClusterBuilder` from a config dict or JSON file."""
    config = _load_dict(source)
    _check_keys("config", config, _TOP_LEVEL_KEYS)
    version = config.get("version", 1)
    if version not in _SUPPORTED_VERSIONS:
        raise ConfigurationError(
            f"unsupported config version {version!r}; "
            f"supported: {sorted(_SUPPORTED_VERSIONS)}"
        )
    builder = ClusterBuilder(strategy=config.get("strategy", "hetero_split"))

    fabric = config.get("fabric")
    if fabric is not None:
        if config.get("nodes") or config.get("rails"):
            raise ConfigurationError(
                "'fabric' replaces 'nodes' + 'rails'; give one or the other"
            )
        builder.fabric(Fabric.from_dict(fabric))
    else:
        nodes = config.get("nodes")
        if not nodes:
            raise ConfigurationError(
                "config needs a non-empty 'nodes' list (or a 'fabric')"
            )
        for node in nodes:
            if "name" not in node:
                raise ConfigurationError(f"node entry without a name: {node}")
            _check_keys("node", node, _NODE_KEYS)
            topology = None
            if not _TOPOLOGY_KEYS.isdisjoint(node):
                topology = CpuTopology(
                    sockets=int(node.get("sockets", 2)),
                    cores_per_socket=int(node.get("cores_per_socket", 2)),
                    signal_cost_us=float(node.get("signal_cost_us", 3.0)),
                    preempt_cost_us=float(node.get("preempt_cost_us", 6.0)),
                )
            builder.add_node(
                node["name"],
                topology=topology,
                memcpy_rate=float(node.get("memcpy_rate", 3000.0)),
            )

        rails = config.get("rails")
        if not rails:
            raise ConfigurationError(
                "config needs a non-empty 'rails' list (or a 'fabric')"
            )
        for rail in rails:
            _check_keys("rail", rail, _RAIL_KEYS)
            try:
                driver = rail["driver"]
                node_a, node_b = rail["between"]
            except (KeyError, ValueError) as exc:
                raise ConfigurationError(
                    f"rail entry needs 'driver' and a 2-node 'between': {rail}"
                ) from exc
            builder.add_rail(driver, node_a, node_b, **rail.get("overrides", {}))

    coll_overrides = config.get("collectives")
    if coll_overrides is not None:
        if not isinstance(coll_overrides, dict):
            raise ConfigurationError(
                f"'collectives' must map collective -> algorithm; "
                f"got {coll_overrides!r}"
            )
        builder.collectives(coll_overrides)

    for node_name, strategy in config.get("per_node_strategy", {}).items():
        builder.strategy_for(node_name, strategy)

    options = config.get("options", {})
    _check_keys("options", options, _OPTIONS_KEYS)
    if options.get("multicore_rx"):
        builder.multicore_rx(True)

    sampling = config.get("sampling", True)
    if isinstance(sampling, dict):
        _check_keys("sampling", sampling, _SAMPLING_KEYS)
    if isinstance(sampling, dict) and "profile_file" in sampling:
        builder.sampling(profiles=ProfileStore.load(sampling["profile_file"]))
    elif sampling is not True:
        raise ConfigurationError(
            f"'sampling' must be true or {{'profile_file': ...}}; "
            f"got {sampling!r}"
        )

    faults = config.get("faults")
    if faults is not None:
        if not isinstance(faults, dict):
            raise ConfigurationError(
                f"'faults' must be a schedule dict "
                f"(FaultSchedule.to_dict form); got {faults!r}"
            )
        builder.faults(FaultSchedule.from_dict(faults))

    resilience = config.get("resilience")
    if resilience is not None:
        if not isinstance(resilience, dict):
            raise ConfigurationError(
                f"'resilience' must be a dict; got {resilience!r}"
            )
        _check_keys("resilience", resilience, _RESILIENCE_KEYS)
        builder.resilience(**resilience)

    _switch(config, "observability", builder.observability)
    _switch(config, "invariants", builder.invariants)
    calibration = config.get("calibration")
    if isinstance(calibration, dict):
        _check_keys("calibration", calibration, _CALIBRATION_KEYS)
        builder.calibration(**calibration)
    elif isinstance(calibration, bool):
        builder.calibration(calibration)
    elif calibration is not None:
        raise ConfigurationError(
            f"'calibration' must be true, false, or a dict of "
            f"{sorted(_CALIBRATION_KEYS)}; got {calibration!r}"
        )
    return builder


def load_cluster(source: ConfigSource) -> Cluster:
    """One-call variant: config → built cluster."""
    return builder_from_config(source).build()
