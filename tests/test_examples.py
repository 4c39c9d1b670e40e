"""Every script under ``examples/`` runs to completion and prints what it
printed when ``tests/examples_golden.json`` was recorded.

The scripts run one after another in a single fresh interpreter, each
through ``runpy.run_path(..., run_name="__main__")`` with its standard
output captured on its own: a subprocess keeps the process-global id
counters the other tests rely on untouched, and one shared interpreter
pays the import cost once.  The simulator is deterministic, so any
difference from the golden is a change in what an example shows.

After a deliberate change to an example or to the model, regenerate the
golden with ``PYTHONPATH=src python tests/test_examples.py``.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
GOLDEN = pathlib.Path(__file__).with_name("examples_golden.json")

RUN_ALL = """
import contextlib, io, json, os, runpy, sys
out = {}
for path in sys.argv[1:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(path, run_name="__main__")
    out[os.path.basename(path)] = buf.getvalue()
json.dump(out, sys.stdout)
"""


def run_examples() -> dict:
    """Run every example in one subprocess; its stdout, by file name."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ALL, *map(str, EXAMPLES)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout)


def test_every_example_runs():
    assert EXAMPLES
    outputs = run_examples()
    golden = json.loads(GOLDEN.read_text())
    assert sorted(outputs) == sorted(golden), "examples added or removed"
    for name, text in outputs.items():
        assert text == golden[name], f"{name} printed something else"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_examples(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
