"""Timeline construction and interval arithmetic over simulation traces.

The queries the evaluation needs: overlap between lanes (did the two
PIO copies actually run in parallel, Fig. 4c?), idle gaps (how long did
iso-split strand the fast rail, §IV-A?), busy time, peak parallelism,
plus an ASCII Gantt renderer for the examples.  :meth:`Timeline.record`
fills the lanes from a cluster's or a machine's hook stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError
from repro.util.units import format_time_us


@dataclass(frozen=True)
class Interval:
    """One busy interval on a lane."""

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merge(intervals: Sequence[Interval]) -> List[Interval]:
    """Coalesce overlapping/adjacent intervals (labels dropped)."""
    out: List[Interval] = []
    for iv in sorted(intervals, key=lambda i: (i.start, i.end)):
        if out and iv.start <= out[-1].end:
            if iv.end > out[-1].end:
                out[-1] = Interval(out[-1].start, iv.end)
        else:
            out.append(Interval(iv.start, iv.end))
    return out


class Timeline:
    """Named lanes of busy intervals, with the queries the tests need.

    Built by hand with :meth:`add`, or recorded from a run with
    :meth:`record`.
    """

    def __init__(self) -> None:
        self._lanes: Dict[str, List[Interval]] = {}
        # recorder state: the clock, each device's (Core or Nic) lane,
        # each NIC's node prefix, and the start of every open fault
        # window by fault lane and kind.  Devices are keyed by ``id``: a
        # device reaches this subscriber through its hook stream, so a
        # device key would close a cycle.
        self._sim = None
        self._device_lanes: Dict[int, str] = {}
        self._prefixes: Dict[int, str] = {}
        self._open: Dict[str, Dict[str, float]] = {}

    def __repr__(self) -> str:
        return f"<Timeline lanes={self.lanes}>"

    @property
    def lanes(self) -> List[str]:
        return sorted({*self._lanes, *filter(self._clipped, self._open)})

    def add(self, lane: str, interval: Interval) -> None:
        self._lanes.setdefault(lane, []).append(interval)

    def intervals(self, lane: str) -> List[Interval]:
        ivs = self._lanes.get(lane, []) + self._clipped(lane)
        if not ivs and lane not in self._lanes:
            raise ConfigurationError(f"no lane {lane!r}; have {self.lanes}")
        return sorted(ivs, key=lambda i: i.start)

    def _clipped(self, lane: str) -> List[Interval]:
        """The lane's open fault windows, ending at the clock."""
        opened = self._open.get(lane)
        if not opened:
            return []
        now = self._sim.now
        return [Interval(t, now, kind) for kind, t in opened.items() if now > t]

    # ------------------------------------------------------------------ #
    # recording from the hook stream
    # ------------------------------------------------------------------ #

    @classmethod
    def record(cls, target) -> "Timeline":
        """Subscribe a new timeline to ``target``'s hook stream.

        ``target`` is a :class:`~repro.api.cluster.Cluster` (every
        node's lanes, prefixed ``<node>/``) or one
        :class:`~repro.hardware.machine.Machine` (its lanes, no prefix;
        a raw machine with no engine works too).  Call it after the
        build and before the run; the timeline fills as events fire.

        Lanes: ``core<i>`` (every core occupancy, labelled by its
        occupier) and ``nic:<name>`` (transmit-engine intervals by
        transfer kind, plus ``inject_busy`` background work), both
        present from the start and without zero-length intervals; a
        ``fault:<name>`` lane of ``down``/``degraded`` windows once a
        NIC has one (a window still open is clipped at the clock when
        the lanes are read); a ``retry`` lane of zero-length markers,
        one per reissued transfer, once the node retries.
        """
        tl = cls()
        tl._sim = target.sim
        machines = getattr(target, "machines", None)
        devices = []
        for name, machine in sorted((machines or {"": target}).items()):
            prefix = f"{name}/" if name else ""
            for core in machine.cores:
                tl._device_lanes[id(core)] = f"{prefix}core{core.core_id}"
                devices.append(core)
            for nic in machine.nics:
                tl._device_lanes[id(nic)] = f"{prefix}nic:{nic.name}"
                tl._prefixes[id(nic)] = prefix
                devices.append(nic)
        for lane in tl._device_lanes.values():
            tl._lanes[lane] = []
        if machines is not None:
            target.hooks.subscribe(tl)
        else:
            # a machine's devices share its engine's stream, or each
            # holds a private one when no engine is built on it
            streams = {id(d.hooks): d.hooks for d in devices}
            for hooks in streams.values():
                hooks.subscribe(tl)
        return tl

    def on_busy(self, device, start: float, now: float, label: str) -> None:
        lane = self._device_lanes.get(id(device))
        if lane is not None and now > start:
            self._lanes[lane].append(Interval(start, now, label))

    def on_tx(self, nic, transfer, start: float, now: float) -> None:
        self.on_busy(nic, start, now, transfer.kind.value)

    def on_retry(self, msg, old, new, max_retries, now, nic, reason) -> None:
        prefix = self._prefixes.get(id(nic))
        if prefix is not None:
            label = f"msg{msg.msg_id} {new.kind.value} {reason}"
            self.add(f"{prefix}retry", Interval(now, now, label))

    def on_nic_down(self, nic, aborted) -> None:
        self._fault(nic, "down")

    def on_nic_up(self, nic, since: float) -> None:
        self._fault(nic, "down", since)

    def on_nic_degrade(self, nic, bw_factor, extra_latency) -> None:
        self._fault(nic, "degraded")

    def on_nic_restore(self, nic, since: float) -> None:
        self._fault(nic, "degraded", since)

    def _fault(self, nic, kind: str, since: Optional[float] = None) -> None:
        """Open a ``kind`` window on ``nic`` (kept open if it already
        is), or close the one that opened at ``since``."""
        prefix = self._prefixes.get(id(nic))
        if prefix is None:
            return
        lane = f"{prefix}fault:{nic.name}"
        opened = self._open.setdefault(lane, {})
        if since is None:
            opened.setdefault(kind, self._sim.now)
        else:
            opened.pop(kind, None)
            self.add(lane, Interval(since, self._sim.now, kind))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def busy_time(self, lane: str) -> float:
        """Total non-overlapping busy µs on a lane."""
        return sum(iv.duration for iv in _merge(self.intervals(lane)))

    def span(self, lane: str) -> Optional[Tuple[float, float]]:
        """(first start, last end) on a lane, or None when empty."""
        ivs = self.intervals(lane)
        if not ivs:
            return None
        return ivs[0].start, max(iv.end for iv in ivs)

    def end(self) -> float:
        """Last busy instant across every lane (0 when all empty)."""
        ends = [s[1] for lane in self.lanes if (s := self.span(lane))]
        return max(ends, default=0.0)

    def overlap(self, lane_a: str, lane_b: str) -> float:
        """µs during which *both* lanes were busy.

        The Fig. 4 discriminator: serialized PIO copies overlap ~0 µs;
        offloaded copies overlap for most of the shorter copy.
        """
        a = _merge(self.intervals(lane_a))
        b = _merge(self.intervals(lane_b))
        total, i, j = 0.0, 0, 0
        while i < len(a) and j < len(b):
            lo = max(a[i].start, b[j].start)
            hi = min(a[i].end, b[j].end)
            if hi > lo:
                total += hi - lo
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return total

    def idle_gap(self, lane_a: str, lane_b: str) -> float:
        """How much later lane_b stays busy after lane_a went quiet.

        The §IV-A iso-split diagnostic: the fast rail's transmit lane ends
        ~670 µs before the slow rail's at 4 MiB.
        """
        span_a, span_b = self.span(lane_a), self.span(lane_b)
        if span_a is None or span_b is None:
            return 0.0
        return max(0.0, span_b[1] - span_a[1])

    def max_parallelism(self, lanes: Optional[Iterable[str]] = None) -> int:
        """Peak number of simultaneously busy lanes."""
        lanes = list(lanes) if lanes is not None else self.lanes
        events: List[Tuple[float, int]] = []
        for lane in lanes:
            for iv in _merge(self.intervals(lane)):
                events.append((iv.start, +1))
                events.append((iv.end, -1))
        events.sort(key=lambda e: (e[0], e[1]))  # ends before starts at ties
        peak = cur = 0
        for _, delta in events:
            cur += delta
            peak = max(peak, cur)
        return peak

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def to_ascii(self, width: int = 72) -> str:
        """A fixed-width Gantt chart (one row per lane) for the examples."""
        end = self.end()
        if end <= 0:
            return "(empty timeline)"
        label_w = max((len(l) for l in self.lanes), default=4)
        lines = []
        for lane in self.lanes:
            row = [" "] * width
            for iv in _merge(self.intervals(lane)):
                lo = int(iv.start / end * (width - 1))
                hi = max(lo, int(iv.end / end * (width - 1)))
                for k in range(lo, hi + 1):
                    row[k] = "#"
            lines.append(f"{lane:<{label_w}} |{''.join(row)}|")
        lines.append(f"{'':<{label_w}}  0{'':{width - 2}}{format_time_us(end)}")
        return "\n".join(lines)
