"""Repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the repository root.

Workloads (``BENCHMARK.json`` says why each exists; see
``perfbench/metrics.json`` for what each end-to-end metric means on it,
which end-to-end metric each per-layer metric should move, and the
seeds):

* ``train-elda`` / ``train-concare`` — fixed-epoch training through
  ``repro.data`` -> ``repro.baselines`` -> ``repro.train`` ->
  ``repro.metrics``;
* ``serve-gru`` — open-loop Poisson traffic at a ladder of fixed rates
  into ``repro.serve``'s ``ReplicaPool`` through ``AsyncServeFrontend``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
whose timings are scaled to a nominal host by a reference kernel timed
beside each timed unit (``common.HostGauge``);
with ``--trace 1`` it carries the per-layer metrics, and a Chrome
trace-event file lands in ``perfbench/out/``.  Each run executes in a
fresh child process with the BLAS thread count pinned, so
``peak_rss_mb`` is that workload's own.  ``python3 perfbench/selftest.py``
checks the benchmark's own helpers.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from common import BLAS_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def pinned_environment():
    """Environment for the workload process.

    The load generator takes one core and each pool worker one, so the
    pool gets ``nproc - 1`` workers with one BLAS thread each:
    workers x BLAS threads + generator <= nproc.
    """
    nproc = os.cpu_count() or 1
    workers = max(1, nproc - 1)
    blas = str(max(1, (nproc - 1) // workers))
    env = dict(os.environ)
    for name in BLAS_VARS:
        env[name] = blas
    env["PERFBENCH_WORKERS"] = str(workers)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_SCALE", None)
    return env


def main(argv):
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    command = [sys.executable, str(HERE / "workload.py"), *argv]
    child = subprocess.Popen(command, cwd=ROOT, env=pinned_environment())
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
