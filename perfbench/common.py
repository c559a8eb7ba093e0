"""Helpers shared by the benchmark workloads: percentiles, the host
speed gauge, memory, the span tracer and its Chrome trace-event export,
and the run environment record.  Standard library only at import (the
gauge imports NumPy when first read), so the launcher can import it
before NumPy's thread pools are configured."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter

#: Fewest samples a reported percentile must leave beyond it.
TAIL_SAMPLES = 10

#: Percentiles the benchmark reports, lowest first.
REPORTED_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values, p):
    """Nearest-rank percentile of ``values`` (``p`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supported_percentile(count, wanted=99.0):
    """Highest reported percentile <= ``wanted`` that leaves at least
    :data:`TAIL_SAMPLES` samples beyond it, or ``None`` if even the
    median does not."""
    best = None
    for p in REPORTED_PERCENTILES:
        if p <= wanted and count * (100.0 - p) >= TAIL_SAMPLES * 100.0:
            best = p
    return best


def tail(values, wanted=99.0):
    """``(percentile used, value)`` for the highest supported tail
    percentile up to ``wanted``; the maximum, as percentile 100, when
    too few samples support even the median."""
    p = supported_percentile(len(values), wanted)
    if p is None:
        return 100.0, max(values)
    return p, percentile(values, p)


def median(values):
    return float(statistics.median(values)) if values else float("nan")


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds of one :func:`reference_kernel` call on the nominal host that
#: timed figures are scaled to.  It only fixes their unit: on the 2-vCPU
#: VM the benchmark was defined on (one BLAS thread) the kernel took
#: 8 to 21 ms as the shared host's speed moved, and this is about the
#: middle of that range.
REFERENCE_NOMINAL_S = 0.014
#: Kernel calls per gauge reading; the reading is their median.
REFERENCE_REPEATS = 7

_reference_inputs = []


def reference_kernel():
    """Fixed NumPy work shaped like the workloads' hot spots: a Python
    loop of small-array ops (the autograd graph's per-op cost) and
    per-step zeroed scatter-adds into a fresh array (``getitem``'s
    backward).  Elementwise passes over large arrays are left out: on
    the shared host their speed moved less than any workload's.  It
    never touches the program under test, so a change to the program
    cannot change it."""
    import numpy as np
    if not _reference_inputs:
        rng = np.random.default_rng(0)
        _reference_inputs.extend([
            rng.standard_normal((64, 32)).astype(np.float32),
            rng.standard_normal((32, 32)).astype(np.float32) * 0.2,
            rng.standard_normal((64, 48, 64)).astype(np.float32)])
        reference_kernel()      # first call pays for page faults
    x, w, sequence = _reference_inputs
    h = x
    for _ in range(1000):
        h = np.tanh(h @ w) * 0.5 + x
    total = np.zeros_like(sequence)
    for t in range(sequence.shape[1]):
        full = np.zeros_like(sequence)
        np.add.at(full, (slice(None), t), sequence[:, t])
        total += full
    return float(h[0, 0]) + float(total[0, 0, 0])


def reference_seconds(repeats=REFERENCE_REPEATS):
    """Median wall seconds of ``repeats`` :func:`reference_kernel` calls."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        reference_kernel()
        times.append(perf_counter() - started)
    return float(statistics.median(times))


class HostGauge:
    """Host speed read beside timed work.

    A shared host's speed moves by up to 2-3x over minutes, which moves
    every timing with it.  Each :meth:`read` times
    :func:`reference_kernel`.  A unit of work is timed between two
    readings, with more taken inside it when it is long, and scaled by
    :meth:`slowness_since` over them, so the figure is what the nominal
    host would have measured.
    """

    def __init__(self):
        self.readings = []
        self.spent = 0.0        # wall seconds spent reading

    def read(self, repeats=REFERENCE_REPEATS):
        started = perf_counter()
        value = reference_seconds(repeats)
        self.readings.append(value)
        self.spent += perf_counter() - started
        return value

    def slowness_since(self, mark):
        """How many times slower than nominal the host ran over the
        readings from index ``mark`` on: their median over
        :data:`REFERENCE_NOMINAL_S`."""
        return median(self.readings[mark:]) / REFERENCE_NOMINAL_S


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb():
    """This process's peak resident set size, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def process_peak_rss_mb(pid):
    """Peak RSS (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid")

    def __init__(self, sid, name, start, end, parent, rid):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.rid = parent, rid

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory spans with name, start, end, parent and request id.

    Synchronous code nests spans with :meth:`span`, which tracks the
    parent on a per-thread stack; asynchronous request stages are added
    with explicit times and parent through :meth:`add`.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.origin = perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end, parent=None, rid=None):
        """Record a finished span; returns its id."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, start, end, parent, rid))
        return sid

    def span(self, name, rid=None):
        return _SpanContext(self, name, rid)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]

    # -- analysis --------------------------------------------------------
    def self_times(self):
        """``{span id: self seconds}``: duration minus the part of the
        span's interval its children cover (overlapping children are
        merged, and clipped to the parent)."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            kids = children.get(span.sid, ())
            result[span.sid] = span.duration - _covered(
                span.start, span.end, [(k.start, k.end) for k in kids])
        return result

    def layer_table(self):
        """Per-name rows ``(name, count, total_s, self_s)``, by self time."""
        self_times = self.self_times()
        rows = {}
        for span in self.spans:
            row = rows.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += self_times[span.sid]
        return sorted(((name, c, t, s) for name, (c, t, s) in rows.items()),
                      key=lambda r: -r[3])

    def render_table(self):
        lines = [f"{'span':40s} {'count':>7s} {'total_s':>10s} "
                 f"{'self_s':>10s}"]
        for name, count, total, own in self.layer_table():
            lines.append(f"{name:40s} {count:7d} {total:10.4f} {own:10.4f}")
        return "\n".join(lines)

    def chrome_events(self):
        """Chrome trace-event list: complete events for synchronous
        spans, async begin/end pairs for request spans (they overlap on
        one thread)."""
        pid = os.getpid()
        events = []
        for span in self.spans:
            ts = (span.start - self.origin) * 1e6
            args = {"sid": span.sid, "parent": span.parent}
            if span.rid is None:
                events.append({"name": span.name, "ph": "X", "ts": ts,
                               "dur": span.duration * 1e6, "pid": pid,
                               "tid": 1, "args": args})
            else:
                args["rid"] = span.rid
                common = {"name": span.name, "cat": "request",
                          "id": span.rid, "pid": pid, "tid": 2}
                events.append(dict(common, ph="b", ts=ts, args=args))
                events.append(dict(common, ph="e",
                                   ts=(span.end - self.origin) * 1e6))
        return events

    def write_chrome(self, path):
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, handle)


class _SpanContext:
    def __init__(self, tracer, name, rid):
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        # Reserve the id now so children can name their parent.
        self.sid = self.tracer.add(self.name, perf_counter(), 0.0,
                                   self.parent, self.rid)
        stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        self.tracer._stack().pop()
        self.tracer.spans[self.sid].end = perf_counter()
        return False


def _covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def commit_id(root):
    """The checkout's commit: git when ``root`` is a git work tree, else
    a content hash of ``src`` (benchmark checkouts need not be git
    repositories)."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    import hashlib
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(root, dtype, workers):
    import numpy
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "pool_workers": workers,
        "dtype": dtype,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit_id(root),
        "argv": sys.argv[1:],
    }
