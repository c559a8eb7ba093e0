"""Import forms of the ``repro.bench`` package."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_lazy_runner_attribute_imports_in_a_fresh_interpreter():
    """``from repro.bench import runner`` goes through the package's lazy
    ``__getattr__``; it must load the submodule, not recurse.  A fresh
    interpreter is needed because any earlier import of
    ``repro.bench.runner`` in this process would bypass the hook."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys; from repro.bench import runner; "
            "assert runner is sys.modules['repro.bench.runner']; "
            "assert callable(runner.benchmark_training)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
