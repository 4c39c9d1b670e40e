"""CSV export of timelines and message lifecycles.

Lets downstream users plot the virtual-time traces with their own tools
(the repo itself stays plotting-library-free).
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from repro.obs.timeline import Interval, Timeline
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packets import Message

PathOrBuffer = Union[str, Path, io.TextIOBase]


@contextmanager
def _open_target(target: PathOrBuffer) -> Iterator[io.TextIOBase]:
    """Yield a writable text stream for ``target``.

    Paths are opened UTF-8 with ``newline=""`` (the csv module supplies
    its own line endings) and closed on exit — even when the writer
    raises mid-export.  Existing streams pass through and stay open;
    closing them is the caller's business.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield target


def export_timeline_csv(timeline: Timeline, target: PathOrBuffer) -> int:
    """Write ``lane,start_us,end_us,label`` rows; returns the row count."""
    with _open_target(target) as stream:
        writer = csv.writer(stream)
        writer.writerow(["lane", "start_us", "end_us", "label"])
        rows = 0
        for lane in timeline.lanes:
            for iv in timeline.intervals(lane):
                writer.writerow([lane, f"{iv.start:.6f}", f"{iv.end:.6f}", iv.label])
                rows += 1
        return rows


def export_messages_csv(messages: Iterable[Message], target: PathOrBuffer) -> int:
    """Write one lifecycle row per message; returns the row count.

    Columns: id, src, dest, tag, size, mode, status, t_post, t_complete,
    latency, rails (``+``-joined), chunks (``+``-joined).
    """
    with _open_target(target) as stream:
        writer = csv.writer(stream)
        writer.writerow(
            [
                "msg_id", "src", "dest", "tag", "size_bytes", "mode", "status",
                "t_post_us", "t_complete_us", "latency_us", "rails", "chunks",
            ]
        )
        rows = 0
        for msg in messages:
            writer.writerow(
                [
                    msg.msg_id,
                    msg.src,
                    msg.dest,
                    msg.tag,
                    msg.size,
                    msg.mode.value if msg.mode else "",
                    msg.status.value,
                    f"{msg.t_post:.6f}" if msg.t_post is not None else "",
                    f"{msg.t_complete:.6f}" if msg.t_complete is not None else "",
                    f"{msg.latency:.6f}" if msg.latency is not None else "",
                    "+".join(msg.rails_used),
                    "+".join(str(c) for c in msg.chunk_sizes),
                ]
            )
            rows += 1
        return rows


def load_timeline_csv(source: Union[str, Path]) -> Timeline:
    """Round-trip loader for :func:`export_timeline_csv` files."""
    path = Path(source)
    if not path.exists():
        raise ConfigurationError(f"no timeline file {path}")
    timeline = Timeline()
    with open(path, encoding="utf-8", newline="") as stream:
        reader = csv.DictReader(stream)
        required = {"lane", "start_us", "end_us", "label"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ConfigurationError(
                f"{path} is not a timeline CSV (columns {reader.fieldnames})"
            )
        for row in reader:
            timeline.add(
                row["lane"],
                Interval(float(row["start_us"]), float(row["end_us"]), row["label"]),
            )
    return timeline
