"""Loss functions.

All losses return a scalar :class:`~repro.nn.tensor.Tensor` suitable for
``backward()``.  Binary cross-entropy comes in two flavours: from
probabilities (Eq. 13 of the ELDA paper, with clipping for stability) and
from logits (the numerically preferred form used by the trainer).
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor, as_tensor

__all__ = ["binary_cross_entropy", "bce_with_logits", "cross_entropy",
           "mean_squared_error"]

_EPS = 1e-7


def binary_cross_entropy(probs, targets, reduction="mean"):
    """BCE between predicted probabilities and binary targets (paper Eq. 13).

    Parameters
    ----------
    probs:
        Tensor of probabilities in (0, 1), any shape.
    targets:
        Array-like of the same shape with values in {0, 1}.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    probs = as_tensor(probs)
    targets = as_tensor(targets)
    clipped = ops.clip(probs, _EPS, 1.0 - _EPS)
    loss = -(targets * ops.log(clipped) + (1.0 - targets) * ops.log(1.0 - clipped))
    return _reduce(loss, reduction)


def bce_with_logits(logits, targets, reduction="mean", pos_weight=None):
    """Numerically stable BCE computed from raw logits.

    Uses the identity ``max(z, 0) - z*y + log(1 + exp(-|z|))``.
    ``pos_weight`` optionally up-weights the positive class.
    """
    logits = as_tensor(logits)
    targets = as_tensor(targets)
    z = logits.data
    y = targets.data
    stable = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    if pos_weight is not None:
        # Explicit dtype: np.where over two python floats would promote
        # the weight (and the whole loss) to float64 under NEP 50.
        dt = z.dtype
        weight = np.where(y > 0.5, dt.type(pos_weight), dt.type(1.0))
        stable = stable * weight
    else:
        weight = None

    def backward(grad):
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            g = sig - y
            if weight is not None:
                # d/dz of weighted BCE: w*(sigmoid(z) - y) only when both terms
                # share the weight; with class weighting only the matching
                # term is scaled, giving w_pos*y*(sig-1) + w_neg*(1-y)*sig.
                g = np.where(y > 0.5, pos_weight * (sig - 1.0), sig)
            logits._accumulate(grad * g, owned=True)

    out = Tensor._make(stable, (logits,), backward)
    return _reduce(out, reduction)


def cross_entropy(logits, targets, reduction="mean"):
    """Multi-class cross-entropy from logits with integer class targets.

    Runs through the fused :func:`repro.nn.ops.softmax_cross_entropy`
    kernel — one graph node instead of the log-softmax / gather / negate
    chain, with bit-identical forward values (equivalence pinned by
    ``tests/nn/test_fused_equivalence.py``).
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    return _reduce(ops.softmax_cross_entropy(logits, targets), reduction)


def mean_squared_error(predictions, targets, reduction="mean"):
    """Mean squared error."""
    predictions = as_tensor(predictions)
    targets = as_tensor(targets)
    diff = predictions - targets
    return _reduce(diff * diff, reduction)


def _reduce(loss, reduction):
    if reduction == "mean":
        return ops.mean(loss)
    if reduction == "sum":
        return ops.sum(loss)
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
