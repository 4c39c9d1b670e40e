"""Every script under ``examples/`` runs to completion.

The scripts run one after another in a single fresh interpreter, each
through ``runpy.run_path(..., run_name="__main__")``: a subprocess keeps
the process-global id counters the other tests rely on untouched, and
one shared interpreter pays the import cost once.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

RUN_ALL = """
import runpy, sys
for path in sys.argv[1:]:
    runpy.run_path(path, run_name="__main__")
"""


def test_every_example_runs():
    assert EXAMPLES
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
