"""Normalization layers."""

from __future__ import annotations

import numpy as np

from .. import ops
from ..module import Module, Parameter

__all__ = ["LayerNorm"]


class LayerNorm(Module):
    """Layer normalization over the last axis with learned scale and shift."""

    def __init__(self, size, eps=1e-5):
        super().__init__()
        self.size = size
        self.eps = eps
        self.scale = Parameter(np.ones(size))
        self.shift = Parameter(np.zeros(size))

    def forward(self, x):
        mu = ops.mean(x, axis=-1, keepdims=True)
        variance = ops.var(x, axis=-1, keepdims=True)
        normalized = (x - mu) / ops.sqrt(variance + self.eps)
        return normalized * self.scale + self.shift
