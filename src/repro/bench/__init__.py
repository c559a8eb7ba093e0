"""``repro.bench`` — per-op profiling and training benchmarks.

Two layers:

* :func:`profile` / :class:`Profiler` — a context manager that hooks the
  ``@differentiable`` op registry and records call counts, wall time
  (inclusive and self), and allocated bytes for forward and backward
  separately;
* :mod:`repro.bench.runner` — end-to-end training benchmarks on a fixed
  synthetic cohort (the ``repro bench`` CLI subcommand and the
  ``pytest -m bench`` perf-smoke lane are thin wrappers over it).

This package's import graph is deliberately one-way: ``repro.nn`` imports
only :mod:`repro.bench._hooks`, and nothing here imports ``repro.nn`` at
module load (``runner`` is loaded lazily), so instrumentation adds a
single list check to un-profiled op calls.

See docs/PERFORMANCE.md for the full guide.
"""

import importlib

from .profiler import OpStat, Profiler, profile
from .report import render_table, write_report

__all__ = ["OpStat", "Profiler", "profile", "render_table", "write_report",
           "runner"]


def __getattr__(name):
    if name == "runner":
        # ``from . import runner`` would probe this hook again before
        # importing the submodule and recurse without end.
        return importlib.import_module(".runner", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
