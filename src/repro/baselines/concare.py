"""ConCare baseline (Ma et al., AAAI 2020).

ConCare processes *each medical feature separately* with its own GRU and
then lets the per-feature summaries exchange information through
multi-head self-attention, modelling cross-feature interdependencies.

The per-feature GRUs are vectorized: all ``C`` single-input GRUs run as
one sequence-fused scan (:func:`repro.nn.ops.perfeature_gru_scan`) with
per-feature weight slices — equivalent to ``C`` independent GRUs, but the
whole sequence is one graph node with a hand-derived backward.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import ops
from ..nn.dtype import get_default_dtype
from ..nn.layers import MultiHeadSelfAttention
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["ConCare", "PerFeatureGRU"]


class PerFeatureGRU(Module):
    """C independent single-input GRUs computed as one fused scan.

    Input ``(B, T, C)`` -> output ``(B, C, H)``: the final hidden state of
    feature *c*'s GRU over its scalar time series.  Every timestep is
    processed, padded ones included.
    """

    def __init__(self, num_features, hidden_size, rng):
        super().__init__()
        self.num_features = num_features
        self.hidden_size = hidden_size
        # Per-feature kernels: input weights (C, 1, 3H) and recurrent
        # weights (C, H, 3H), biases (C, 3H).
        self.w_ih = Parameter(nn.init.glorot_uniform(
            (num_features, 1, 3 * hidden_size), rng))
        self.w_hh = Parameter(np.stack([
            nn.init.orthogonal((hidden_size, 3 * hidden_size), rng)
            for _ in range(num_features)]))
        self.bias = Parameter(np.zeros((num_features, 3 * hidden_size)))

    def forward(self, values):
        h0 = nn.Tensor(self.initial_state(values.shape[0]))
        h = ops.perfeature_gru_scan(values, h0, self.w_ih, self.w_hh,
                                    self.bias)
        return h.transpose((1, 0, 2))                    # (B, C, H)

    # -- streaming inference (serve tier) ------------------------------
    def initial_state(self, batch_size):
        """Zero stacked state ``(C, B, H)`` (policy dtype)."""
        return np.zeros((self.num_features, batch_size, self.hidden_size),
                        dtype=get_default_dtype())

    def stream_step(self, h, x_t):
        """Advance the stacked state ``(C, B, H)`` by one ``(B, C)`` slice.

        Inference-only, on plain arrays:
        :func:`repro.nn.ops.perfeature_gru_scan_step` is bit-identical to
        one step of the scan :meth:`forward` runs.
        """
        x_t = np.asarray(x_t, dtype=get_default_dtype())
        return ops.perfeature_gru_scan_step(x_t, h, self.w_ih.data,
                                            self.w_hh.data, self.bias.data)


class ConCare(Module, InferenceMixin):
    """Per-feature GRUs + cross-feature self-attention.

    Default sizes land near the ~183k parameters of the paper's Table III
    (ConCare is the largest baseline there, as here).
    """

    def __init__(self, num_features, rng, feature_hidden=32, num_heads=4):
        super().__init__()
        self.num_features = num_features
        self.feature_hidden = feature_hidden
        self.encoder = PerFeatureGRU(num_features, feature_hidden, rng)
        self.attention = MultiHeadSelfAttention(feature_hidden, num_heads, rng)
        self.weight = Parameter(nn.init.glorot_uniform(
            (num_features * feature_hidden, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        summaries = self.encoder(nn.Tensor(batch.values))   # (B, C, H)
        attended = self.attention(summaries)                # (B, C, H)
        flat = attended.reshape(attended.shape[0],
                                self.num_features * self.feature_hidden)
        return (ops.matmul(flat, self.weight) + self.bias).reshape(-1)

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        return {"h": self.encoder.initial_state(batch_size)}

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """Fully O(1) per step: the per-feature recurrence advances once
        and the cross-feature attention head is constant in sequence
        length (it attends over features, not time).
        """
        h = self.encoder.stream_step(state["h"], values_t)
        summaries = nn.Tensor(h).transpose((1, 0, 2))       # (B, C, H)
        attended = self.attention(summaries)
        flat = attended.reshape(attended.shape[0],
                                self.num_features * self.feature_hidden)
        logits = (ops.matmul(flat, self.weight) + self.bias).reshape(-1)
        return {"h": h}, logits
