"""Tests for CSV export/import of traces."""

import io

import pytest

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.obs import (
    Interval,
    Timeline,
    export_messages_csv,
    export_timeline_csv,
    load_timeline_csv,
)
from repro.util.errors import ConfigurationError
from repro.util.units import MiB


@pytest.fixture(scope="module")
def run_artifacts():
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=default_profiles())
        .build()
    )
    timeline = Timeline.record(cluster.machines["node0"])
    a, b = cluster.session("node0"), cluster.session("node1")
    b.irecv()
    msg = a.isend("node1", 2 * MiB)
    cluster.run()
    return timeline, [msg]


class TestTimelineCsv:
    def test_roundtrip_via_file(self, tmp_path, run_artifacts):
        timeline, _ = run_artifacts
        path = tmp_path / "trace.csv"
        rows = export_timeline_csv(timeline, path)
        assert rows > 0
        back = load_timeline_csv(path)
        # Lanes with no intervals (idle cores) have nothing to serialize.
        busy_lanes = [l for l in timeline.lanes if timeline.intervals(l)]
        assert back.lanes == busy_lanes
        for lane in busy_lanes:
            assert back.busy_time(lane) == pytest.approx(timeline.busy_time(lane))

    def test_export_to_buffer(self, run_artifacts):
        timeline, _ = run_artifacts
        buf = io.StringIO()
        rows = export_timeline_csv(timeline, buf)
        text = buf.getvalue()
        assert text.startswith("lane,start_us,end_us,label")
        assert text.count("\n") == rows + 1

    def test_roundtrip_labels_with_commas_and_quotes(self, tmp_path):
        """The csv layer must quote awkward labels so they survive a
        write/read cycle intact (and non-ASCII rides the UTF-8 open)."""
        timeline = Timeline()
        labels = [
            'tx:eager, chunk 1/2 "fast"',
            "plain",
            'she said ""twice""',
            "rail=myri10g,0;µs",
        ]
        for i, label in enumerate(labels):
            timeline.add("lane,with,commas", Interval(float(i), i + 0.5, label))
        path = tmp_path / "awkward.csv"
        export_timeline_csv(timeline, path)
        back = load_timeline_csv(path)
        assert back.lanes == ["lane,with,commas"]
        assert [iv.label for iv in back.intervals("lane,with,commas")] == labels

    def test_exception_midway_still_closes_file(self, tmp_path):
        """_open_target owns path-opened streams even when the writer
        blows up midway (the old helper leaked the handle)."""

        class Boom(Timeline):
            @property
            def lanes(self):
                raise RuntimeError("boom")

        path = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError):
            export_timeline_csv(Boom(), path)
        # The file was created, closed, and holds only the flushed header.
        assert path.exists()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_timeline_csv(tmp_path / "ghost.csv")

    def test_load_wrong_schema(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigurationError):
            load_timeline_csv(path)


class TestMessagesCsv:
    def test_lifecycle_columns(self, run_artifacts):
        _, messages = run_artifacts
        buf = io.StringIO()
        rows = export_messages_csv(messages, buf)
        assert rows == 1
        header, line = buf.getvalue().strip().splitlines()
        assert "latency_us" in header
        fields = line.split(",")
        assert fields[1] == "node0" and fields[2] == "node1"
        assert "myri10g" in line and "quadrics" in line  # both rails listed

    def test_incomplete_message_exports_blanks(self):
        from repro.core.packets import Message

        msg = Message(src="a", dest="b", size=10)
        buf = io.StringIO()
        export_messages_csv([msg], buf)
        line = buf.getvalue().strip().splitlines()[1]
        assert ",created," in line
