"""Plain GRU classifier baseline.

The standard recurrent baseline: a single GRU over the standardized,
imputed sequence; the last hidden state feeds a linear head.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import sequence_lengths
from ..nn import ops
from ..nn.layers import GRU
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["GRUClassifier"]


class GRUClassifier(Module, InferenceMixin):
    """GRU encoder with a linear output head.

    With ``hidden_size=64`` on 37 features this lands at the paper's
    ~20k parameters for the GRU row of Table III.

    With ``mask_aware=True`` the encoder receives each admission's true
    sequence length (from the observation mask) and freezes its hidden
    state there, so the head reads the state at the last *observed* step
    instead of after 48 imputed-padding updates — and the fused scan
    stops at the batch's maximum length, which is what length-bucketed
    batching (``Trainer(bucket_by_length=True)``) exploits.  Off by
    default: the padded recurrence is the historically pinned behavior.
    """

    def __init__(self, num_features, rng, hidden_size=64, mask_aware=False):
        super().__init__()
        self.encoder = GRU(num_features, hidden_size, rng,
                           return_sequences=False)
        self.mask_aware = mask_aware
        self.weight = Parameter(nn.init.glorot_uniform((hidden_size, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        lengths = sequence_lengths(batch.mask) if self.mask_aware else None
        last = self.encoder(nn.Tensor(batch.values), lengths=lengths)
        return (ops.matmul(last, self.weight) + self.bias).reshape(-1)

    # -- streaming inference (serve tier) ------------------------------
    stream_native = True

    def stream_begin(self, batch_size):
        h = self.encoder.initial_state(batch_size)
        return {"h": h, "visible": h, "steps": 0}

    def stream_step(self, state, values_t, mask_t=None, deltas_t=None):
        """O(1) per-observation update; see :class:`~repro.nn.InferenceMixin`.

        The hidden state advances through every step (matching the
        padded recurrence); with ``mask_aware=True`` the *reported*
        state is a snapshot taken at each row's last observed step —
        the same state the fused scan freezes at ``sequence_lengths``,
        which clamp to a minimum of one step.
        """
        h = self.encoder.stream_step(values_t, state["h"])
        steps = state["steps"] + 1
        if not self.mask_aware or steps == 1 or mask_t is None:
            visible = h
        else:
            observed = np.asarray(mask_t).any(axis=1)
            visible = np.where(observed[:, None], h, state["visible"])
        logits = np.matmul(visible, self.weight.data) + self.bias.data
        return ({"h": h, "visible": visible, "steps": steps},
                logits.reshape(-1))
