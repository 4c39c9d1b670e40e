"""Collective critical-path profiler: per-hop spans + post-run analysis.

The :class:`~repro.api.mpi.Communicator` wraps every collective call in
a profiling scope while the profiler is subscribed to the hook stream
(one attribute read when it is not) and emits ``on_collective_op`` when
the call finishes.  The scope is purely passive: it marks the rank's send log before
the schedule runs and slices the messages the schedule posted after it
finishes — no extra events, no timestamp moved.  Each message becomes a
*hop* row once the run drains (``t_post``/``t_complete`` are stamped by
the engine either way).  At read-out, :meth:`CollectiveProfiler
.flush_to_tracer` hands each op whose messages all completed to
:meth:`repro.obs.tracer.Tracer.collective`, once, as fixed-shape
records: the op's span and its hops' span pairs.

Post-run analyzers:

* :func:`critical_path` — walks backwards from the globally
  last-completing hop through latest-finishing predecessors on the same
  endpoints: the serialization chain that bounded the collective's
  makespan.
* :func:`stragglers` — per-rank attribution: total hop time, last
  completion, hop count; the ranks at the top are where the makespan
  lives.
* :func:`predicted_vs_measured` — the per-hop-size table comparing the
  cost model's ``AlgorithmSelector.hop`` prediction with measured times;
  :meth:`AlgorithmSelector.calibrate` consumes exactly this table to
  close the "selector calibration against measured hop times" loop.
"""

from __future__ import annotations

from typing import Callable, Dict, List


class CollectiveProfiler:
    """Per-collective-invocation records with lazy hop materialization."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        #: one dict per profiled collective call (any rank), in the
        #: deterministic order the simulator finished them
        self.ops: List[Dict] = []

    def __repr__(self) -> str:
        return f"<CollectiveProfiler {len(self.ops)} op(s)>"

    def on_collective_op(
        self,
        rank: int,
        node: str,
        collective: str,
        algorithm: str,
        nbytes: int,
        seq: int,
        t_start: float,
        t_end: float,
        msgs: List,
        hop_predict: Callable[[int], float],
    ) -> None:
        """Record one finished collective call on one rank.

        ``msgs`` are the Message objects the schedule posted from this
        rank (send-log slice); completion times are read lazily at
        snapshot time, after the run drained.  ``hop_predict`` maps a
        hop size to the cost model's predicted time (memoized selector
        lookup — a pure table read).
        """
        predicted = {}
        for m in msgs:
            if m.size not in predicted:
                predicted[m.size] = hop_predict(m.size)
        self.ops.append(
            {
                "rank": rank,
                "node": node,
                "collective": collective,
                "algorithm": algorithm,
                "nbytes": nbytes,
                "seq": seq,
                "t_start": t_start,
                "t_end": t_end,
                "msgs": msgs,
                "predicted": predicted,
                "traced": False,
            }
        )

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #

    def hops(self) -> List[Dict]:
        """One row per message posted inside a profiled collective."""
        rows: List[Dict] = []
        for op in self.ops:
            for m in op["msgs"]:
                rows.append(
                    {
                        "collective": op["collective"],
                        "algorithm": op["algorithm"],
                        "seq": op["seq"],
                        "rank": op["rank"],
                        "node": op["node"],
                        "dst": m.dest,
                        "tag": m.tag,
                        "size": m.size,
                        "msg_id": m.msg_id,
                        "t_post": m.t_post,
                        "t_complete": m.t_complete,
                        "predicted_us": op["predicted"].get(m.size),
                    }
                )
        rows.sort(key=lambda h: (h["t_post"], h["node"], h["msg_id"]))
        return rows

    def op_rows(self) -> List[Dict]:
        """Op records without the message refs (JSON-able)."""
        rows = [
            {
                k: op[k]
                for k in (
                    "collective", "algorithm", "nbytes", "seq",
                    "rank", "node", "t_start", "t_end",
                )
            }
            for op in self.ops
        ]
        rows.sort(key=lambda o: (o["t_start"], o["node"], o["seq"]))
        return rows

    def snapshot(self) -> Dict[str, object]:
        hops = self.hops()
        return {
            "ops": self.op_rows(),
            "hops": hops,
            "critical_path": critical_path(hops),
            "stragglers": stragglers(hops),
            "predicted_vs_measured": predicted_vs_measured(hops),
        }

    def flush_to_tracer(self, tracer) -> None:
        """Emit op spans + completed hop spans (once per op) so Perfetto
        shows each rank's collective rounds; exporter re-sorts by ts.

        Each op goes to :meth:`repro.obs.tracer.Tracer.collective`, which
        pushes fixed-shape records."""
        spans = tracer.collective
        for op in self.ops:
            if op["traced"]:
                continue
            incomplete = [m for m in op["msgs"] if m.t_complete is None]
            if incomplete:
                # A fire-and-forget send is still in flight; emit this
                # op on a later flush (post-drain flushes see them all).
                continue
            op["traced"] = True
            spans(
                op["node"], op["collective"], op["seq"], op["algorithm"],
                op["nbytes"], op["rank"], op["t_start"], op["t_end"],
                op["msgs"],
            )

    def clear(self) -> None:
        self.ops.clear()


# ---------------------------------------------------------------------- #
# post-run analyzers (pure functions over hop rows)
# ---------------------------------------------------------------------- #

def _completed(hops: List[Dict]) -> List[Dict]:
    return [h for h in hops if h["t_complete"] is not None]


def critical_path(hops: List[Dict]) -> List[Dict]:
    """The serialization chain ending at the last-completing hop.

    Greedy backwards walk: from the globally last-completing hop, the
    predecessor is the latest-finishing hop that completed before it was
    posted and shares an endpoint with it (same sender, or its sender
    was the other hop's receiver) — the dependency shapes every schedule
    in :mod:`repro.api.collectives` induces.  Ties break on
    ``(t, node, msg_id)`` so the chain is deterministic.
    """
    done = _completed(hops)
    if not done:
        return []

    def latest(cands):
        return max(cands, key=lambda h: (h["t_complete"], h["node"], h["msg_id"]))

    cur = latest(done)
    chain = [cur]
    while True:
        cands = [
            h
            for h in done
            if h is not cur
            and h["t_complete"] <= cur["t_post"]
            and (h["node"] in (cur["node"], cur["dst"]) or h["dst"] == cur["node"])
        ]
        if not cands:
            break
        cur = latest(cands)
        chain.append(cur)
    chain.reverse()
    out = []
    for i, h in enumerate(chain):
        row = {
            k: h[k]
            for k in (
                "collective", "seq", "rank", "node", "dst", "size",
                "msg_id", "t_post", "t_complete",
            )
        }
        row["hop_us"] = h["t_complete"] - h["t_post"]
        row["gap_us"] = (
            h["t_post"] - chain[i - 1]["t_complete"] if i > 0 else 0.0
        )
        out.append(row)
    return out


def stragglers(hops: List[Dict]) -> List[Dict]:
    """Per-rank attribution, slowest first: who the collective waited on."""
    per_rank: Dict[int, Dict] = {}
    for h in _completed(hops):
        agg = per_rank.get(h["rank"])
        if agg is None:
            agg = per_rank[h["rank"]] = {
                "rank": h["rank"],
                "node": h["node"],
                "hops": 0,
                "bytes": 0,
                "hop_time_us": 0.0,
                "last_complete_us": 0.0,
            }
        agg["hops"] += 1
        agg["bytes"] += h["size"]
        agg["hop_time_us"] += h["t_complete"] - h["t_post"]
        agg["last_complete_us"] = max(agg["last_complete_us"], h["t_complete"])
    return sorted(
        per_rank.values(),
        key=lambda a: (-a["last_complete_us"], -a["hop_time_us"], a["rank"]),
    )


def predicted_vs_measured(hops: List[Dict]) -> List[Dict]:
    """Per-hop-size table: the cost model's hop prediction vs reality.

    ``measured_us`` averages ``t_complete − t_post`` (queueing and
    contention included — exactly what the selector's serialized-round
    cost should reflect); ``ratio`` > 1 means hops ran slower than the
    contention-blind model predicted.
    """
    by_size: Dict[int, Dict] = {}
    for h in _completed(hops):
        agg = by_size.get(h["size"])
        if agg is None:
            agg = by_size[h["size"]] = {
                "size": h["size"],
                "hops": 0,
                "measured_total": 0.0,
                "predicted_us": h["predicted_us"],
            }
        agg["hops"] += 1
        agg["measured_total"] += h["t_complete"] - h["t_post"]
    out = []
    for size in sorted(by_size):
        agg = by_size[size]
        measured = agg["measured_total"] / agg["hops"]
        predicted = agg["predicted_us"]
        out.append(
            {
                "size": size,
                "hops": agg["hops"],
                "predicted_us": predicted,
                "measured_us": measured,
                "ratio": (
                    measured / predicted
                    if predicted is not None and predicted > 0
                    else None
                ),
            }
        )
    return out


def measured_hop_table(hops: List[Dict]) -> Dict[int, float]:
    """size → mean measured hop time, the input to selector calibration."""
    return {
        row["size"]: row["measured_us"] for row in predicted_vs_measured(hops)
    }
