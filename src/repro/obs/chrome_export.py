"""Chrome ``trace_event`` JSON export of a :class:`~repro.obs.tracer.Tracer`.

The output loads in Perfetto (https://ui.perfetto.dev) and legacy
``chrome://tracing``: one *process* per simulated node, one *thread* per
lane (NIC, core, message stream), timestamps in virtual µs.

Determinism: node→pid and lane→tid maps are assigned in sorted order,
events are sorted by ``(ts, seq)`` (``seq`` is the tracer's record
order, so simultaneous events keep a stable order), and the JSON is
dumped with sorted keys — two identical runs serialize byte-identically.
The event dicts are built in one loop over the sorted records by
:func:`repro.obs.tracer.event_dicts`, the builder :attr:`Tracer.events`
uses too, with one ``(node, lane) → (pid, tid)`` map.
"""

from __future__ import annotations

import io
import json
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.tracer import event_dicts

PathOrBuffer = Union[str, Path, io.TextIOBase]


def chrome_trace(tracer) -> Dict[str, Any]:
    """Render the tracer's events as a Chrome JSON object-format trace."""
    records = tracer.records
    lanes = sorted({rec[1] for rec in records})
    nodes = sorted({node for node, _ in lanes})
    pid_of = {node: i + 1 for i, node in enumerate(nodes)}
    ids: Dict[tuple, tuple] = {}
    tids: Dict[str, int] = {}
    for where in lanes:
        node = where[0]
        tid = tids[node] = tids.get(node, 0) + 1
        ids[where] = (pid_of[node], tid)

    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "cat": "__metadata",
            "pid": pid_of[node], "tid": 0, "ts": 0, "args": {"name": node},
        }
        for node in nodes
    ]
    events += [
        {
            "ph": "M", "name": "thread_name", "cat": "__metadata",
            "pid": pid, "tid": tid, "ts": 0, "args": {"name": where[1]},
        }
        for where, (pid, tid) in ids.items()
    ]
    # A stable sort by ts keeps record order among equal timestamps: the
    # (ts, seq) order.
    events += event_dicts(sorted(records, key=itemgetter(3)), ids)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual-us",
            "dropped_events": tracer.dropped,
        },
    }


def dumps_chrome_trace(tracer) -> str:
    """The trace as a canonical JSON string (sorted keys, compact)."""
    return json.dumps(chrome_trace(tracer), sort_keys=True, separators=(",", ":"))


def export_chrome_trace(tracer, target: PathOrBuffer) -> int:
    """Write the Chrome JSON trace; returns the number of events written
    (metadata included)."""
    trace = chrome_trace(tracer)
    text = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
    return len(trace["traceEvents"])


def validate_chrome_trace(trace: Dict[str, Any]) -> List[str]:
    """Structural checks on an exported trace; returns problem strings
    (empty = valid).

    Checked: non-metadata timestamps are monotonically non-decreasing,
    ``X`` events carry a non-negative ``dur``, and every async ``b`` has
    a matching ``e`` (same ``cat``/``id``/``name``) and vice versa.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    last_ts = None
    open_spans: Dict[tuple, int] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i} missing {key!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i} has non-numeric ts {ts!r}")
            continue
        if ts < 0:
            problems.append(f"event {i} has negative ts {ts}")
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i} ts {ts} < previous {last_ts} (not sorted)")
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"X event {i} ({ev.get('name')}) has bad dur {dur!r}")
        elif ph in ("b", "e"):
            key = (ev.get("cat"), ev.get("id"), ev.get("name"))
            if ev.get("id") is None:
                problems.append(f"async event {i} ({ev.get('name')}) has no id")
            if ph == "b":
                open_spans[key] = open_spans.get(key, 0) + 1
            else:
                if open_spans.get(key, 0) <= 0:
                    problems.append(
                        f"async end {i} ({ev.get('name')} id={ev.get('id')}) "
                        "without a begin"
                    )
                else:
                    open_spans[key] -= 1
        elif ph not in ("i", "C"):
            problems.append(f"event {i} has unexpected phase {ph!r}")
    for (cat, span_id, name), depth in sorted(
        open_spans.items(), key=lambda kv: str(kv[0])
    ):
        if depth > 0:
            problems.append(
                f"async begin {name} (cat={cat} id={span_id}) never ended"
            )
    return problems
