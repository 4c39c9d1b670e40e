"""Golden table: every committed simulated number, regenerated exactly.

Each row names a registered experiment, the committed file its payload
reproduces, and which of that file's values a fresh run must match bit
for bit.  Only simulated values are compared: the wall-clock fields and
the prose ``harness``/``description`` keys stay out, so a match is
exact on any host.  ``EXPERIMENTS.md`` is compared whole.

The 128-rank COLL row (seconds of simulation) is not re-run here; the
8- and 32-rank rows and the skewed table are.
"""

import fnmatch
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from benchmarks import generate_experiments_md
from repro.bench.runners import repo_root


@dataclass(frozen=True)
class GoldenRow:
    """One committed file and the values a fresh run must reproduce."""

    experiment: str
    committed: str
    #: (committed path, payload path) pairs of subtrees to compare;
    #: empty means every leaf of the file not matched by ``skip``
    pairs: Tuple[Tuple[str, str], ...] = ()
    #: fnmatch patterns of leaf paths a whole-file comparison leaves out
    skip: Tuple[str, ...] = ()
    #: keyword arguments of the experiment's ``run``
    run_args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def id(self) -> str:
        return Path(self.committed).stem


def _same(*paths: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((p, p) for p in paths)


PROSE = ("harness", "description")
COLL_8_32 = (("ranks", (8, 32)),)

ROWS = (
    GoldenRow("DEG", "BENCH_PR2.json", skip=PROSE),
    # the payload has no wall-clock columns: OBS runs each mode once
    GoldenRow(
        "OBS",
        "BENCH_PR3.json",
        skip=PROSE + ("points.*.wall_*", "scenario.repeats"),
    ),
    GoldenRow(
        "CHAOS",
        "BENCH_PR4.json",
        skip=PROSE
        + (
            "points.*.wall_on_s",
            "points.*.wall_off_s",
            "soak.scenarios_per_sec_*",
        ),
    ),
    GoldenRow("CAL", "BENCH_PR5.json", skip=PROSE),
    GoldenRow(
        "COLL",
        "BENCH_PR7.json",
        pairs=_same(
            "alltoall_flat_switch.0",
            "alltoall_flat_switch.1",
            "skewed_alltoallv_fat_tree",
        ),
        run_args=COLL_8_32,
    ),
    GoldenRow(
        "COLL",
        "BENCH_PR8.json",
        pairs=(
            (
                "current.alltoall_naive_8r_us",
                "alltoall_flat_switch.0.makespan_us.naive",
            ),
            (
                "current.alltoall_ring_8r_us",
                "alltoall_flat_switch.0.makespan_us.ring",
            ),
            (
                "current.alltoall_ring_speedup_8r",
                "alltoall_flat_switch.0.speedup_vs_naive.ring",
            ),
            (
                "current.alltoall_rails_skew_speedup_8r",
                "skewed_alltoallv_fat_tree.mean_speedup",
            ),
        ),
        run_args=COLL_8_32,
    ),
    GoldenRow("FAB", "BENCH_PR10.json", skip=PROSE),
)


def flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Leaves of nested dicts/lists keyed by dotted path (list items by
    index); empty containers are leaves."""
    if isinstance(value, dict) and value:
        children = value.items()
    elif isinstance(value, list) and value:
        children = enumerate(value)
    else:
        return {prefix: value}
    out: Dict[str, Any] = {}
    for key, child in children:
        out.update(flatten(child, f"{prefix}.{key}" if prefix else str(key)))
    return out


def subtree(flat: Dict[str, Any], path: str) -> Dict[str, Any]:
    """The leaves at or below ``path``, keyed by their path below it."""
    return {
        key[len(path):]: value
        for key, value in flat.items()
        if key == path or key.startswith(path + ".")
    }


def mismatches(row: GoldenRow, payload: Dict, committed_file: Path) -> List[str]:
    """Every compared key where ``payload`` differs from the committed
    file, named by its path in that file.  Leaves compare as JSON text,
    so ``1``, ``1.0`` and ``true`` differ."""
    committed = flatten(json.loads(committed_file.read_text()))
    # the payload as `cli run EXP --json` writes it
    fresh = flatten(json.loads(json.dumps(payload)))
    if row.pairs:
        compared = [
            (c_path, subtree(committed, c_path), subtree(fresh, p_path))
            for c_path, p_path in row.pairs
        ]
    else:
        def kept(flat):
            return {
                key: value
                for key, value in flat.items()
                if not any(fnmatch.fnmatchcase(key, p) for p in row.skip)
            }

        compared = [("", kept(committed), kept(fresh))]
    problems = []
    for base, want, got in compared:
        if not want:
            problems.append(f"{base}: not in {committed_file.name}")
        for rest in sorted(set(want) | set(got)):
            key = base + rest
            if rest not in got:
                problems.append(f"{key}: missing from the fresh payload")
            elif rest not in want:
                problems.append(f"{key}: not in {committed_file.name}")
            elif json.dumps(want[rest]) != json.dumps(got[rest]):
                problems.append(
                    f"{key}: committed {want[rest]!r}, fresh {got[rest]!r}"
                )
    return problems


def _payload(experiment, row: GoldenRow) -> Dict:
    return experiment(row.experiment, **dict(row.run_args)).payload()


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_fresh_run_matches_committed(row, experiment):
    committed = repo_root() / row.committed
    assert mismatches(row, _payload(experiment, row), committed) == []


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_named_keys_exist(row):
    """A typo in a row must not silently compare nothing."""
    committed = flatten(json.loads((repo_root() / row.committed).read_text()))
    for c_path, _ in row.pairs:
        assert subtree(committed, c_path), f"{row.committed} has no {c_path}"
    for pattern in row.skip:
        assert any(
            fnmatch.fnmatchcase(key, pattern) for key in committed
        ), f"{row.committed} has no key matching {pattern}"


@pytest.mark.parametrize(
    "row_id, key",
    [
        ("BENCH_PR2", ("points", 1, "degraded_mbps")),
        ("BENCH_PR8", ("current", "alltoall_ring_8r_us")),
    ],
    ids=["BENCH_PR2", "BENCH_PR8"],
)
def test_perturbed_number_fails_and_names_the_key(
    tmp_path, experiment, row_id, key
):
    row = next(r for r in ROWS if r.id == row_id)
    data = json.loads((repo_root() / row.committed).read_text())
    parent = data
    for part in key[:-1]:
        parent = parent[part]
    parent[key[-1]] = math.nextafter(parent[key[-1]], math.inf)
    copy = tmp_path / row.committed
    copy.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    problems = mismatches(row, _payload(experiment, row), copy)
    assert len(problems) == 1
    assert problems[0].startswith(".".join(map(str, key)) + ": committed")


def test_committed_collectives_meet_acceptance():
    """The committed baseline carries the acceptance numbers: a classic
    schedule beats naive at 8/32/128 ranks, and the RailS balancer beats
    uniform striping on the skewed matrix."""
    payload = json.loads((repo_root() / "BENCH_PR8.json").read_text())
    for row in payload["alltoall_flat_switch"]:
        speedups = row["speedup_vs_naive"]
        assert max(speedups["ring"], speedups["doubling"]) > 1.0
    assert payload["skewed_alltoallv_fat_tree"]["mean_speedup"] > 1.0


def test_experiments_md_regenerates_byte_for_byte(experiment):
    committed = (repo_root() / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert generate_experiments_md.render(experiment) == committed
