"""Dropout regularization."""

from __future__ import annotations

import numpy as np

from .. import ops
from ..module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout; active only in training mode.

    An explicit generator keeps runs reproducible.
    """

    def __init__(self, rate, rng=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x):
        if not self.training or self.rate == 0.0:
            return x
        return ops.dropout_mask(x, self.rate, self.rng)
