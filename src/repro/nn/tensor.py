"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  A ``Tensor`` wraps a numpy array and records the
operations applied to it in a dynamic computation graph; calling
:meth:`Tensor.backward` on a scalar result propagates gradients to every
tensor created with ``requires_grad=True``.

The design follows the classic "define-by-run" tape:

* every op creates a new ``Tensor`` whose ``_parents`` are its inputs and
  whose ``_backward`` closure distributes the output gradient to them;
* broadcasting is handled uniformly by :func:`unbroadcast`, which sums a
  gradient down to the shape of the input it belongs to;
* ``backward`` performs an iterative topological sort, so arbitrarily deep
  graphs (e.g. a 48-step GRU unrolled in Python) do not hit the recursion
  limit.

Floating-point precision is governed by the repo-wide policy in
:mod:`repro.nn.dtype`: every tensor is coerced to the current default
dtype (float32 unless overridden), so the engine runs end-to-end in one
precision while correctness tooling (gradcheck, the finite-difference
sweeps) scopes float64 locally with ``dtype.autocast``.

Gradient memory is treated as a reusable plane rather than a stream of
fresh allocations: the first gradient reaching a node seeds ``.grad``
directly (donated without a copy when the producing op owns the buffer),
later contributions accumulate in place via ``np.add(..., out=)``, and
``backward(free_graph=True)`` releases op closures and interior
gradients as soon as they are consumed.  ``repro.bench`` hooks observe
every gradient-buffer birth/death to report peak live gradient bytes.
"""

from __future__ import annotations

import numpy as np

from ..bench import _hooks as _bench_hooks
from .dtype import get_default_dtype

__all__ = ["Tensor", "unbroadcast", "as_tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True

# Active anomaly-detection state, managed by repro.nn.debug.detect_anomaly.
# When not None, every op output and every backward gradient is scanned for
# NaN/Inf and the offending op is reported by name.
_ANOMALY_STATE = None


def _op_name_of(backward):
    """Op-name tag derived from a backward closure's qualified name.

    Every op defines its closure as ``def backward(grad)`` inside the op
    function, so ``add.<locals>.backward`` tags the node as ``"add"`` —
    a zero-maintenance label for anomaly reports and graph audits.
    """
    if backward is None:
        return None
    return backward.__qualname__.split(".", 1)[0]


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every op behaves like a plain numpy
    computation: results have ``requires_grad=False`` and record no parents.
    Used by inference paths and by optimizers when updating parameters.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled():
    """Return whether ops currently record the computation graph."""
    return _GRAD_ENABLED


def unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    If an input of shape ``shape`` was broadcast up to ``grad.shape`` during
    the forward pass, the correct gradient w.r.t. the input is the sum of
    ``grad`` over all broadcast axes.
    """
    if grad.shape == tuple(shape):
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the input.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _coerce(value):
    """Convert a scalar / array-like into an array of the policy dtype.

    The target precision comes from :func:`repro.nn.dtype.get_default_dtype`
    (float32 by default); arrays already in the policy dtype pass through
    without a copy.
    """
    dtype = get_default_dtype()
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def as_tensor(value, requires_grad=False):
    """Return ``value`` as a :class:`Tensor` (no copy if it already is one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Scalar, sequence, or numpy array.  Stored in the policy dtype
        (see :mod:`repro.nn.dtype`; float32 by default).
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_op", "name")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = _coerce(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._op = None
        self.name = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self):
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self):
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    @property
    def op_name(self):
        """Name of the op that produced this tensor (``None`` for leaves)."""
        if self._op is not None:
            return self._op
        return _op_name_of(self._backward)

    @staticmethod
    def _make(data, parents, backward):
        """Create an op output, respecting the global no_grad switch."""
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out = Tensor(data, requires_grad=True, _parents=tuple(parents),
                         _backward=backward)
        else:
            out = Tensor(data)
        if _ANOMALY_STATE is not None:
            out._op = _op_name_of(backward)
            from . import debug
            debug._on_forward(out, parents, out._op)
        return out

    def _accumulate(self, grad, owned=False):
        """Add ``grad`` into ``.grad``, reusing buffers where possible.

        The first contribution *seeds* the gradient buffer instead of
        allocating zeros and adding into them; with ``owned=True`` the
        caller donates a freshly computed array and no copy is made at
        all.  Ops must only pass ``owned=True`` for arrays they
        allocated themselves in the backward closure — never for the
        incoming gradient or a view of it, which may be aliased by a
        sibling branch of the graph.  Later contributions accumulate in
        place via ``np.add(..., out=)``.
        """
        if self.grad is None:
            if (owned and isinstance(grad, np.ndarray)
                    and grad.dtype == self.data.dtype
                    and grad.shape == self.data.shape
                    and grad.flags.writeable):
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype)
            if _bench_hooks._PROFILERS:
                _bench_hooks.grad_alloc(self.grad.nbytes)
        else:
            np.add(self.grad, grad, out=self.grad)

    def zero_grad(self):
        """Reset the accumulated gradient to ``None``."""
        if self.grad is not None and _bench_hooks._PROFILERS:
            _bench_hooks.grad_free(self.grad.nbytes)
        self.grad = None

    def detach(self):
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def backward(self, grad=None, free_graph=True):
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some downstream scalar w.r.t. this tensor.  Defaults
            to 1 for scalar tensors; required otherwise.
        free_graph:
            When true (the default), each node's backward closure,
            parent references, and interior gradient are released as
            soon as they are consumed, so peak live gradient memory
            stays at a couple of activations instead of the whole tape.
            Pass ``False`` to keep the closures for a second backward
            over the same graph.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient "
                                   "requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} does not match "
                                 f"tensor shape {self.data.shape}")

        # Iterative topological sort (DFS with an explicit stack).
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        if _ANOMALY_STATE is not None:
            from . import debug
            debug._check_seed_grad(self, grad)

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                if _bench_hooks._PROFILERS:
                    # Time this node's backward and attribute it to the
                    # producing op's tag (see repro.bench).
                    _bench_hooks.call_backward(node.op_name, node._backward,
                                               node.grad)
                else:
                    node._backward(node.grad)
                if _ANOMALY_STATE is not None:
                    from . import debug
                    debug._on_backward(node)
                # Free intermediate gradients eagerly in every mode —
                # a second backward must not double-count them; leaves
                # (parameters / inputs) have no _backward and keep theirs.
                if node.grad is not None and _bench_hooks._PROFILERS:
                    _bench_hooks.grad_free(node.grad.nbytes)
                node.grad = None
                if free_graph:
                    node._parents = ()
                    node._backward = None

    # ------------------------------------------------------------------
    # Operators (implemented in ops.py, attached below to avoid a cycle)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from . import ops
        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops
        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops
        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import ops
        return ops.div(self, other)

    def __rtruediv__(self, other):
        from . import ops
        return ops.div(other, self)

    def __neg__(self):
        from . import ops
        return ops.neg(self)

    def __pow__(self, exponent):
        from . import ops
        return ops.power(self, exponent)

    def __matmul__(self, other):
        from . import ops
        return ops.matmul(self, other)

    def __getitem__(self, index):
        from . import ops
        return ops.getitem(self, index)

    # Convenience method forms -----------------------------------------
    def sum(self, axis=None, keepdims=False):
        from . import ops
        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        from . import ops
        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import ops
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes=None):
        from . import ops
        return ops.transpose(self, axes)

    @property
    def T(self):
        return self.transpose()

    def swapaxes(self, a, b):
        from . import ops
        return ops.swapaxes(self, a, b)

    def exp(self):
        from . import ops
        return ops.exp(self)

    def log(self):
        from . import ops
        return ops.log(self)

    def tanh(self):
        from . import ops
        return ops.tanh(self)

    def sigmoid(self):
        from . import ops
        return ops.sigmoid(self)

    def relu(self):
        from . import ops
        return ops.relu(self)

    def sqrt(self):
        from . import ops
        return ops.sqrt(self)

    def clip(self, low, high):
        from . import ops
        return ops.clip(self, low, high)
