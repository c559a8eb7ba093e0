"""Fully connected layers."""

from __future__ import annotations

import numpy as np

from .. import init, ops
from ..module import Module, Parameter

__all__ = ["Dense", "MLP"]

_ACTIVATIONS = {
    None: lambda x: x,
    "linear": lambda x: x,
    "relu": ops.relu,
    "tanh": ops.tanh,
    "sigmoid": ops.sigmoid,
}


def resolve_activation(activation):
    """Return a callable activation from a name, callable, or None."""
    if callable(activation):
        return activation
    if activation in _ACTIVATIONS:
        return _ACTIVATIONS[activation]
    raise ValueError(f"unknown activation {activation!r}")


class Dense(Module):
    """Affine layer ``y = activation(x W + b)`` applied over the last axis."""

    def __init__(self, in_features, out_features, rng, activation=None,
                 use_bias=True, weight_init=init.glorot_uniform):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init((in_features, out_features), rng))
        self.use_bias = use_bias
        if use_bias:
            self.bias = Parameter(np.zeros(out_features))
        self.activation = resolve_activation(activation)

    def forward(self, x):
        out = ops.matmul(x, self.weight)
        if self.use_bias:
            out = out + self.bias
        return self.activation(out)


class MLP(Module):
    """Stack of Dense layers with a shared hidden activation."""

    def __init__(self, sizes, rng, hidden_activation="relu",
                 output_activation=None):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        from ..module import ModuleList
        layers = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = index == len(sizes) - 2
            layers.append(Dense(fan_in, fan_out, rng,
                                activation=output_activation if last
                                else hidden_activation))
        self.layers = ModuleList(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
