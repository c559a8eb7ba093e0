"""Prediction Module (paper Section IV-B, Eq. 12).

A linear head on the comprehensive patient representation.  Binary tasks
(mortality, LOS > 7 days) use a single logit + sigmoid; the module also
supports a multi-class softmax head as a natural extension for tasks like
phenotyping.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import ops
from ..nn.module import Module, Parameter

__all__ = ["PredictionModule"]


class PredictionModule(Module):
    """Linear classification head.

    Parameters
    ----------
    input_size:
        Size of the patient representation ``h̃_T``.
    rng:
        Generator for weight initialization.
    num_classes:
        1 for binary classification (sigmoid over a single logit);
        > 1 for multi-class (softmax).
    """

    def __init__(self, input_size, rng, num_classes=1):
        super().__init__()
        self.num_classes = num_classes
        out = 1 if num_classes == 1 else num_classes
        self.weight = Parameter(nn.init.glorot_uniform((input_size, out), rng))
        self.bias = Parameter(np.zeros(out))

    def logits(self, representation):
        """Raw scores before the output nonlinearity."""
        out = ops.matmul(representation, self.weight) + self.bias
        if self.num_classes == 1:
            return out.reshape(-1)
        return out

    def forward(self, representation):
        """Class probabilities: sigmoid (binary) or softmax (multi-class)."""
        raw = self.logits(representation)
        if self.num_classes == 1:
            return ops.sigmoid(raw)
        return ops.softmax(raw, axis=-1)
