"""No run of the library loads numpy.

Each sampled curve is held once, in the plain float lists of
:class:`repro.core.estimator.SampleTable`, and the library imports numpy
only inside :class:`repro.core.sampling.NoisySampler`, which ablation A9
alone builds.  Loading numpy would roughly double the CPU time, and
raise the memory, of every benchmark start-up (``docs/performance.md``,
"11. Start-up and footprint").

The check runs in a fresh interpreter, because this test process has
numpy loaded already: the estimator tests use it as their oracle.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

START_UP = """
import sys

import repro.api
import repro.api.mpi
import repro.bench.cli
import repro.bench.runners
import repro.faults
import repro.obs
import workloads

repro.bench.runners.build_paper_cluster("hetero_split")
print("numpy" in sys.modules)
"""


def test_start_up_loads_no_numpy():
    paths = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    paths.append(os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", START_UP],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "False", "a start-up loaded numpy"
