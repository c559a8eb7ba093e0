"""1-D convolution over the time axis (used by StageNet's pattern extractor)."""

from __future__ import annotations

import numpy as np

from .. import init, ops
from ..module import Module, Parameter

__all__ = ["Conv1D"]


class Conv1D(Module):
    """Temporal convolution on (batch, time, channels) with 'same' padding.

    Implemented as a sum of shifted matmuls, which keeps the backward pass
    inside the existing autodiff primitives.
    """

    def __init__(self, in_channels, out_channels, kernel_size, rng,
                 activation=None):
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError("Conv1D requires an odd kernel size for 'same' padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.kernel = Parameter(
            init.glorot_uniform((kernel_size, in_channels, out_channels), rng))
        self.bias = Parameter(np.zeros(out_channels))
        from .dense import resolve_activation
        self.activation = resolve_activation(activation)

    def forward(self, x):
        batch, steps, _ = x.shape
        half = self.kernel_size // 2
        out = None
        for offset in range(-half, half + 1):
            tap = self.kernel[offset + half]          # (C_in, C_out)
            lo = max(0, -offset)
            hi = min(steps, steps - offset)
            if lo >= hi:
                continue
            segment = x[:, lo + offset:hi + offset, :]
            term = ops.matmul(segment, tap)
            term = _pad_time(term, lo, steps - hi)
            out = term if out is None else out + term
        out = out + self.bias
        return self.activation(out)


def _pad_time(x, before, after):
    """Zero-pad the time axis of a (batch, time, channels) tensor."""
    if before == 0 and after == 0:
        return x
    padded = ops.swapaxes(x, 1, 2)
    padded = ops.pad_last(padded, before, after)
    return ops.swapaxes(padded, 1, 2)
