"""Weight initialization schemes.

All functions take an explicit ``numpy.random.Generator`` so that every
model in the benchmark suite is exactly reproducible from a seed.

Draws happen in float64 (the generator's native precision, so the
random stream is identical under every policy) and the result is cast
once to the policy default dtype on the way out.
"""

from __future__ import annotations

import numpy as np

from .dtype import get_default_dtype

__all__ = ["glorot_uniform", "glorot_normal", "he_uniform", "orthogonal",
           "uniform", "normal", "zeros", "ones"]


def _as_default(array):
    """Cast a freshly drawn array to the policy dtype (no-op if equal)."""
    return np.asarray(array, dtype=get_default_dtype())


def _fans(shape):
    """Compute (fan_in, fan_out) for a weight of the given shape."""
    if len(shape) < 1:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive


def glorot_uniform(shape, rng):
    """Glorot/Xavier uniform: U(-limit, limit) with limit = sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return _as_default(rng.uniform(-limit, limit, size=shape))


def glorot_normal(shape, rng):
    """Glorot/Xavier normal: N(0, 2/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return _as_default(rng.normal(0.0, std, size=shape))


def he_uniform(shape, rng):
    """He uniform, suited to ReLU layers."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return _as_default(rng.uniform(-limit, limit, size=shape))


def orthogonal(shape, rng, gain=1.0):
    """Orthogonal initialization (used for recurrent kernels)."""
    if len(shape) < 2:
        raise ValueError("orthogonal init requires at least 2 dimensions")
    rows, cols = shape[0], int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return _as_default(gain * q[:rows, :cols].reshape(shape))


def uniform(shape, rng, low=-0.05, high=0.05):
    """Plain uniform initialization."""
    return _as_default(rng.uniform(low, high, size=shape))


def normal(shape, rng, std=0.05):
    """Plain zero-mean normal initialization."""
    return _as_default(rng.normal(0.0, std, size=shape))


def zeros(shape, rng=None):
    """All-zeros (biases)."""
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape, rng=None):
    """All-ones (scale parameters)."""
    return np.ones(shape, dtype=get_default_dtype())
