"""Anomaly detection and graph auditing for the autodiff engine.

Two opt-in correctness tools:

* :class:`detect_anomaly` — a context manager that makes every op check
  its forward value, and :meth:`Tensor.backward` check every gradient,
  for NaN/Inf.  The first non-finite value raises :class:`AnomalyError`
  naming the offending op (each graph node carries a lightweight op-name
  tag) together with the graph path that led to it, so a NaN that would
  otherwise surface epochs later as a garbage loss is pinned to the exact
  primitive that produced it.

* :func:`audit_backward` — runs ``backward()`` under instrumentation and
  asserts two structural invariants of the tape: no gradient is ever
  accumulated into a tensor with ``requires_grad=False``, and every
  interior node's backward closure runs exactly once (the topological-
  order guarantee; diamond-shaped graphs would double-count gradients if
  this regressed).

Both are used by the test suite and exposed to users via the trainer's
``anomaly_mode`` flag and the CLI's ``--debug-anomaly`` switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as _tensor_mod
from .tensor import Tensor

__all__ = ["AnomalyError", "GraphAuditError", "GraphAudit", "detect_anomaly",
           "anomaly_enabled", "graph_path", "audit_backward"]


class AnomalyError(RuntimeError):
    """A non-finite value (NaN/Inf) was produced while anomaly mode is on."""


class GraphAuditError(AssertionError):
    """A structural invariant of the autodiff tape was violated."""


def anomaly_enabled():
    """Return whether a :class:`detect_anomaly` block is currently active."""
    return _tensor_mod._ANOMALY_STATE is not None


class detect_anomaly:
    """Context manager enabling NaN/Inf detection on every op.

    Parameters
    ----------
    check_forward:
        Raise when an op's output contains NaN/Inf (default on).
    check_backward:
        Raise when a backward closure produces a NaN/Inf gradient
        (default on).
    dtype:
        Optional precision override scoped to the block (e.g.
        ``np.float64`` to re-run a float32 overflow in double precision
        and see whether it is a range problem or a genuine divergence).
        Implemented with :class:`repro.nn.dtype.autocast`.

    Nesting is allowed; the previous state is restored on exit.  The
    checks cost one ``np.isfinite`` scan per op, so leave this off in
    production runs and switch it on to localize a numerical failure.
    """

    def __init__(self, check_forward=True, check_backward=True, dtype=None):
        self.check_forward = check_forward
        self.check_backward = check_backward
        from .dtype import autocast
        self._autocast = None if dtype is None else autocast(dtype)

    def __enter__(self):
        self._previous = _tensor_mod._ANOMALY_STATE
        _tensor_mod._ANOMALY_STATE = self
        if self._autocast is not None:
            self._autocast.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._autocast is not None:
            self._autocast.__exit__(exc_type, exc, tb)
        _tensor_mod._ANOMALY_STATE = self._previous
        return False


def graph_path(node, limit=12):
    """Describe the lineage of ``node`` as ``"op <- op <- ... <- leaf"``.

    Follows one parent chain (preferring parents that are themselves op
    outputs), which is enough to localize where in a model a bad value
    came from.
    """
    names = []
    current = node
    for _ in range(limit):
        name = current.op_name
        if name is None:
            break
        names.append(name)
        parents = [p for p in current._parents if p.op_name is not None]
        if not parents:
            names.append("leaf")
            break
        current = parents[0]
    else:
        names.append("...")
    return " <- ".join(names) if names else "leaf"


def _describe_bad(data):
    data = np.asarray(data)
    parts = []
    nans = int(np.isnan(data).sum())
    infs = int(np.isinf(data).sum())
    if nans:
        parts.append(f"{nans} NaN")
    if infs:
        parts.append(f"{infs} Inf")
    return ", ".join(parts) or "non-finite values"


def _on_forward(out, parents, op_name):
    """Called from ``Tensor._make`` while anomaly mode is active."""
    state = _tensor_mod._ANOMALY_STATE
    if state is None or not state.check_forward:
        return
    if np.isfinite(out.data).all():
        return
    upstream = [p.op_name or "leaf" for p in parents]
    raise AnomalyError(
        f"anomaly detected in forward pass: op '{op_name}' produced "
        f"{_describe_bad(out.data)} (output shape {out.shape}); "
        f"inputs from [{', '.join(upstream) or 'constants'}]; "
        f"graph path: {graph_path(out)}")


def _on_backward(node):
    """Called from ``Tensor.backward`` after ``node._backward`` ran."""
    state = _tensor_mod._ANOMALY_STATE
    if state is None or not state.check_backward:
        return
    for parent in node._parents:
        if parent.grad is not None and not np.isfinite(parent.grad).all():
            raise AnomalyError(
                f"anomaly detected in backward pass: backward of op "
                f"'{node.op_name}' produced {_describe_bad(parent.grad)} in "
                f"the gradient of a parent "
                f"('{parent.op_name or 'leaf'}', shape {parent.shape}); "
                f"graph path: {graph_path(node)}")


def _check_seed_grad(root, grad):
    state = _tensor_mod._ANOMALY_STATE
    if state is None or not state.check_backward:
        return
    if not np.isfinite(grad).all():
        raise AnomalyError(
            f"anomaly detected: backward() was seeded with "
            f"{_describe_bad(grad)} at the root "
            f"('{root.op_name or 'leaf'}')")


# ----------------------------------------------------------------------
# Graph auditing
# ----------------------------------------------------------------------

@dataclass
class GraphAudit:
    """Result of :func:`audit_backward`."""

    #: Number of interior (op-output) nodes reachable from the root.
    num_interior: int
    #: Number of leaf tensors with ``requires_grad=True`` in the graph.
    num_leaves: int
    #: ``op_name -> times its backward ran`` (every value must be 1).
    visits: dict


def _reachable(root):
    """All graph nodes reachable from ``root`` along requires-grad edges,
    mirroring the traversal rule of :meth:`Tensor.backward`."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append(parent)
    return list(seen.values())


def audit_backward(root, grad=None):
    """Run ``root.backward(grad)`` under structural instrumentation.

    Asserts (raising :class:`GraphAuditError` otherwise) that

    * every interior node's backward closure is invoked exactly once, and
    * no gradient is accumulated into a tensor with
      ``requires_grad=False``.

    Returns a :class:`GraphAudit` report.  The graph is consumed exactly
    as by a normal ``backward()`` call.
    """
    nodes = _reachable(root)
    interior = [n for n in nodes if n._backward is not None]
    leaves = [n for n in nodes if n._backward is None and n.requires_grad]
    counts = {id(n): 0 for n in interior}
    labels = {id(n): (n.op_name or "?") for n in interior}

    def wrap(node, original):
        def counted(g):
            counts[id(node)] += 1
            if counts[id(node)] > 1:
                raise GraphAuditError(
                    f"backward of op '{labels[id(node)]}' invoked "
                    f"{counts[id(node)]} times; the topological sort must "
                    f"visit each node exactly once")
            return original(g)
        return counted

    for node in interior:
        node._backward = wrap(node, node._backward)

    original_accumulate = Tensor._accumulate

    def checked_accumulate(self, g, owned=False):
        if not self.requires_grad:
            raise GraphAuditError(
                f"gradient accumulated into a tensor with "
                f"requires_grad=False (shape {self.shape}, "
                f"op '{self.op_name or 'leaf'}')")
        return original_accumulate(self, g, owned=owned)

    Tensor._accumulate = checked_accumulate
    try:
        root.backward(grad)
    finally:
        Tensor._accumulate = original_accumulate

    missed = [labels[i] for i, c in counts.items() if c == 0]
    if missed:
        raise GraphAuditError(
            f"backward never reached {len(missed)} interior node(s): "
            f"{', '.join(sorted(set(missed)))}")
    visits = {}
    for i, c in counts.items():
        name = labels[i]
        visits[name] = max(visits.get(name, 0), c)
    return GraphAudit(num_interior=len(interior), num_leaves=len(leaves),
                      visits=visits)
