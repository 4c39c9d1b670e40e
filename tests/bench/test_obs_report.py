"""``cli obs report``: the 8-rank fat-tree ring alltoall report, pinned.

``obs_report_golden.json`` holds the whole ``--json`` payload byte for
byte: the utilization rows that ``_fabric_utilization`` parses out of
the ``fabric.*`` counter names, the critical path, the stragglers and
the calibrated ``hop_scale``.  A renamed metric empties the utilization
table and fails here.  A cost-model change moves ``hop_scale`` and
``predicted_vs_measured``; regenerate the fixture then::

    PYTHONPATH=src python tests/bench/test_obs_report.py
"""

import itertools
import pathlib
import sys

import repro.core.packets as packets
import repro.networks.transfer as transfer
import repro.pioman.requests as requests
import repro.threading.tasklet as tasklet
from repro.bench.cli import main
from repro.bench.runners import default_profiles

FIXTURE = pathlib.Path(__file__).with_name("obs_report_golden.json")


def report(path) -> int:
    """``cli obs report --json path`` with the process-global id
    counters restarted, so message ids do not depend on what ran before
    (the cached sampling pass, which draws ids too, is warmed first)."""
    default_profiles(("myri10g", "quadrics"))
    packets._msg_seq = itertools.count()
    transfer._transfer_ids = itertools.count()
    tasklet._tasklet_ids = itertools.count()
    requests._request_ids = itertools.count()
    return main(["obs", "report", "--json", str(path)])


def test_json_matches_golden(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert report(path) == 0
    assert path.read_bytes() == FIXTURE.read_bytes()
    assert "link/spine utilization" in capsys.readouterr().out


if __name__ == "__main__":
    sys.exit(report(FIXTURE))
