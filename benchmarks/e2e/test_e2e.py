"""Self-test of the end-to-end benchmark (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Runs ``run.py --quick`` several times (about 90 s in all): every
declared metric is emitted with its unit, simulated outputs repeat
bit for bit and follow the seed, the traced layer split adds up to the
traced wall time, and an op cut short counts as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
#: one 128-rank episode alone takes ~13 s, so it gets its own invocation
BIG = "alltoall_flat128"
SMALL = [n for n in NAMES if n != BIG]
QUICK_LIMIT_S = 15.0

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def quick(tmp_path: Path, *args: str):
    """One ``run.py --quick`` invocation: (last line, --out JSON, seconds)."""
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out), *args],
        capture_output=True, text=True, cwd=ROOT,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr + proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text()), elapsed


def sim_view(run: dict) -> dict:
    """Every simulated metric and digest of a run, by workload."""
    return {
        name: (
            w["sim_digest"],
            {k: m["value"] for k, m in w["metrics"].items() if m["kind"] == "sim"},
        )
        for name, w in run["workloads"].items()
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    only_small = [arg for name in SMALL for arg in ("--workload", name)]
    small = [quick(tmp, "--seed", "0", *only_small) for _ in range(2)]
    big = [quick(tmp, "--seed", "0", "--workload", BIG) for _ in range(2)]
    other_seed = [
        quick(tmp, "--seed", "1", *only_small),
        quick(tmp, "--seed", "1", "--workload", BIG),
    ]
    return {"small": small, "big": big, "seed1": other_seed}


def test_quick_run_is_quick(runs):
    for _, _, elapsed in runs["small"]:
        assert elapsed <= QUICK_LIMIT_S


def test_every_declared_end_to_end_metric_has_its_unit(runs):
    line, full, _ = runs["small"][0]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for name in SMALL:
        for m in SPEC["end_to_end"]:
            assert line["metrics"][f"{name}:{m['name']}"]["unit"] == m["unit"]
            assert full["workloads"][name]["metrics"][m["name"]]["unit"] == m["unit"]
    big_line = runs["big"][0][0]
    assert set(big_line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_simulated_outputs_repeat_bit_for_bit(runs):
    assert sim_view(runs["small"][0][1]) == sim_view(runs["small"][1][1])
    assert sim_view(runs["big"][0][1]) == sim_view(runs["big"][1][1])


def test_another_seed_changes_every_digest(runs):
    base = {**sim_view(runs["small"][0][1]), **sim_view(runs["big"][0][1])}
    other = {**sim_view(runs["seed1"][0][1]), **sim_view(runs["seed1"][1][1])}
    assert set(base) == set(NAMES)
    for name in NAMES:
        assert base[name][0] != other[name][0], name


def test_traced_layers_add_up_and_simulate_the_same(tmp_path):
    line, full, _ = quick(tmp_path, "--trace", "--workload", "moe_fat_tree_obs")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    w = full["workloads"]["moe_fat_tree_obs"]
    assert w["traced_sim_digest"] == w["untraced_sim_digest"]
    assert abs(w["traced_self_s"] / w["traced_wall_s"] - 1.0) <= 0.05


@pytest.mark.parametrize("name", ["p2p_rdv_split", "moe_fat_tree_obs"])
def test_an_op_cut_short_counts_as_failed(name):
    import random

    from measure import summarize
    from repro.bench.runners import default_profiles
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(random.Random(f"{name}:0:0"), 0)
    episode = workload.run(inputs, default_profiles(), until=50.0)
    metrics = summarize([episode])
    assert episode.failed > 0
    assert metrics["ops_failed_frac"] == episode.failed / episode.attempted > 0

