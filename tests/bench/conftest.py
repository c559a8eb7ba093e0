"""Perf-lane setup: time training with BLAS pinned to one thread.

OpenBLAS sizes its thread pool once, when NumPy loads it, and the test
session has loaded NumPy long before this file runs.  So, the way
``perfbench`` does, each timed lane runs its measurement in a fresh
interpreter whose environment pins every BLAS pool to one thread.  On a
shared 2-vCPU host an unpinned GRU float64 lane has read 9.2 steps/sec
against its floor of 21; pinned, it clears the floor.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_CHILD = """\
import json, sys
from repro.bench.runner import benchmark_training
result = benchmark_training(**json.loads(sys.argv[1]))
print(json.dumps(result["steps_per_sec"]))
"""


@pytest.fixture(scope="session")
def pinned_steps_per_sec():
    """``benchmark_training(**kwargs)["steps_per_sec"]``, measured in a
    fresh interpreter with one BLAS thread."""
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def measure(**kwargs):
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps(kwargs)], env=env,
            capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        return json.loads(done.stdout.strip().splitlines()[-1])

    return measure
