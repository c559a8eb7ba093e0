"""Micro-batching: coalesce concurrent single-admission requests.

Per-request forward passes waste the hardware: a single admission drives
tiny GEMV-shaped kernels, while the PR-2 fused kernels are tuned for
batched GEMMs.  The :class:`MicroBatcher` sits between many caller
threads and one :class:`~repro.serve.Predictor`:

1. callers block in :meth:`MicroBatcher.predict_proba` (or get a handle
   from :meth:`MicroBatcher.submit`) while their request sits in a queue;
2. a worker thread drains the queue, coalescing up to ``max_batch_size``
   requests, waiting at most ``max_wait_ms`` after the first request of
   a batch arrives;
3. one padded fixed-shape forward serves the whole batch and results fan
   back out to the waiting callers.

Every forward runs at exactly ``max_batch_size`` rows (zero-padded), so
an admission's probabilities are **bit-identical** no matter which
requests happened to share its batch — and bit-identical to a
single-request forward through the same padded path.  BLAS picks kernels
per GEMM shape, so this determinism is only available at a fixed shape;
see docs/SERVING.md.

The worker thread never holds a reference to the batcher itself: it runs
on a detached :class:`_WorkerState`, and a ``weakref.finalize`` hook
aborts the worker when the last reference to an un-stopped batcher is
dropped — in-flight requests fail with :class:`ServeRequestError`
instead of hanging forever on a thread nobody can reach.
"""

from __future__ import annotations

import queue
import threading
import weakref
from time import monotonic, perf_counter

from .config import resolve_config

__all__ = ["MicroBatcher", "RequestHandle", "ServeRequestError"]

_SENTINEL = object()


class ServeRequestError(RuntimeError):
    """A request failed inside the serving worker (original as cause)."""


class _Pending:
    """One in-flight request: the rows, a latch, and the outcome."""

    __slots__ = ("rows", "event", "result", "error", "submitted_at")

    def __init__(self, rows):
        self.rows = rows
        self.event = threading.Event()
        self.result = None
        self.error = None
        self.submitted_at = perf_counter()


class RequestHandle:
    """Future-like handle returned by :meth:`MicroBatcher.submit`."""

    def __init__(self, pending):
        self._pending = pending

    def done(self):
        return self._pending.event.is_set()

    def result(self, timeout=None):
        """Block until the response arrives; re-raise worker failures."""
        if not self._pending.event.wait(timeout):
            raise TimeoutError("serving request timed out")
        if self._pending.error is not None:
            raise ServeRequestError(
                "request failed in the serving worker"
            ) from self._pending.error
        return self._pending.result


class _WorkerState:
    """Everything the serve loop needs — deliberately *not* the batcher.

    The thread targets a module-level function over this state, so the
    :class:`MicroBatcher` stays collectible while its worker runs; the
    batcher's finalizer flips ``abort`` when that happens.
    """

    __slots__ = ("predictor", "max_batch_size", "max_wait_ms", "metrics",
                 "queue", "abort")

    def __init__(self, predictor, max_batch_size, max_wait_ms, metrics):
        self.predictor = predictor
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.metrics = metrics
        self.queue = queue.Queue()
        self.abort = threading.Event()


def _fail(pending, message):
    pending.error = RuntimeError(message)
    pending.event.set()


def _abort_worker(state):
    """Finalizer body: stop a worker whose batcher was dropped un-stopped.

    Queued and future requests fail fast (via :class:`ServeRequestError`
    in :meth:`RequestHandle.result`) rather than blocking forever.
    """
    state.abort.set()
    state.queue.put(_SENTINEL)


def _collect_batch(state, first):
    """Coalesce requests after ``first`` until full or deadline."""
    batch = [first]
    rows = len(first.rows)
    deadline = monotonic() + state.max_wait_ms / 1000.0
    while rows < state.max_batch_size:
        remaining = deadline - monotonic()
        try:
            item = (state.queue.get_nowait() if remaining <= 0
                    else state.queue.get(timeout=remaining))
        except queue.Empty:
            break
        if item is _SENTINEL:
            # Put the shutdown marker back for the outer loop, but
            # serve everything already accepted first.
            state.queue.put(_SENTINEL)
            break
        if rows + len(item.rows) > state.max_batch_size:
            # Does not fit this batch; lead the next one with it.
            state.queue.put(item)
            break
        batch.append(item)
        rows += len(item.rows)
    return batch


def _drain_aborted(state):
    """Fail everything still queued after an abort."""
    while True:
        try:
            item = state.queue.get_nowait()
        except queue.Empty:
            return
        if item is not _SENTINEL:
            _fail(item, "MicroBatcher was dropped without stop(); "
                        "request abandoned")


def _serve_loop(state):
    from ..metrics.probability import sigmoid_probs, softmax_probs
    from .predictor import _stack_rows
    while True:
        item = state.queue.get()
        if item is _SENTINEL:
            if state.abort.is_set():
                _drain_aborted(state)
            return
        if state.abort.is_set():
            _fail(item, "MicroBatcher was dropped without stop(); "
                        "request abandoned")
            continue
        batch = _collect_batch(state, item)
        try:
            stacked = (_stack_rows([p.rows for p in batch])
                       if len(batch) > 1 else batch[0].rows)
            # One padded forward per coalesced batch, regardless of
            # the predictor's bulk chunk size.
            logits = state.predictor.predict_logits(
                stacked, pad_to=state.max_batch_size)
            probabilities = (sigmoid_probs(logits) if logits.ndim == 1
                             else softmax_probs(logits))
        except Exception as error:  # fan the failure out to callers
            for pending in batch:
                pending.error = error
                pending.event.set()
            continue
        finished = perf_counter()
        offset = 0
        for pending in batch:
            n = len(pending.rows)
            pending.result = probabilities[offset:offset + n]
            offset += n
            if state.metrics is not None:
                state.metrics.record_request(
                    finished - pending.submitted_at)
            pending.event.set()


class MicroBatcher:
    """Threaded request coalescer in front of a :class:`Predictor`.

    Parameters
    ----------
    predictor:
        The wrapped :class:`~repro.serve.Predictor`.
    config:
        A :class:`~repro.serve.ServeConfig`; ``max_batch_size`` bounds
        coalesced requests per forward (every forward is padded to
        exactly this many rows — the determinism guarantee) and
        ``max_wait_ms`` is how long the worker holds an under-full
        batch open after its first request arrived (smaller favors
        latency, larger favors occupancy/throughput).  Defaults to the
        predictor's own config.
    metrics:
        Optional :class:`~repro.serve.ServeMetrics`; receives one
        ``record_request`` per response (queue-to-response latency) on
        top of the predictor's per-forward ``record_batch`` events.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, predictor, config=None, *, metrics=None):
        self.config = resolve_config(config, owner="MicroBatcher",
                                     base=getattr(predictor, "config", None))
        self.predictor = predictor
        self.max_batch_size = self.config.max_batch_size
        self.max_wait_ms = self.config.max_wait_ms
        self.metrics = metrics
        self._state = _WorkerState(predictor, self.max_batch_size,
                                   self.max_wait_ms, metrics)
        self._worker = None
        self._finalizer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._worker is not None:
            raise RuntimeError("MicroBatcher already started")
        self._state.abort.clear()
        self._worker = threading.Thread(target=_serve_loop,
                                        args=(self._state,),
                                        name="repro-serve-worker",
                                        daemon=True)
        self._worker.start()
        self._finalizer = weakref.finalize(self, _abort_worker, self._state)
        return self

    def stop(self):
        """Drain outstanding requests, then stop the worker."""
        if self._worker is None:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._state.queue.put(_SENTINEL)
        self._worker.join()
        self._worker = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, rows):
        """Enqueue a request; returns a :class:`RequestHandle`.

        ``rows`` is a (usually single-admission) model-ready
        :class:`~repro.data.dataset.EMRDataset`; it may hold up to
        ``max_batch_size`` rows.
        """
        if self._worker is None:
            raise RuntimeError("MicroBatcher is not running; use it as a "
                               "context manager or call start()")
        if len(rows) > self.max_batch_size:
            raise ValueError(f"request of {len(rows)} rows exceeds "
                             f"max_batch_size={self.max_batch_size}")
        pending = _Pending(rows)
        self._state.queue.put(pending)
        return RequestHandle(pending)

    def predict_proba(self, rows, timeout=None):
        """Blocking convenience: submit and wait for the probabilities."""
        return self.submit(rows).result(timeout=timeout)
