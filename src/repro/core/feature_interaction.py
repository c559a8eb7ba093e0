"""Feature-level Interaction Learning Module (paper Section IV-B, Eqs. 3-6).

For every time step and every feature *i*, the module forms explicit
pairwise interactions ``r_ij = e_i ⊙ e_j`` with all other features,
attends over them with a per-feature attention network

    α'_ij = (W_i^α)^T r_ij + b_i^α          (Eq. 4)
    α_ij  = softmax_j≠i(α'_ij)              (Eq. 5)

aggregates ``c_i = Σ_j α_ij r_ij``, and compresses the enriched feature
``[e_i; c_i]`` into a ``d``-dimensional representation (Eq. 6).

Implementation note: materializing the (B, T, C, C, e) interaction tensor
is wasteful.  We use the algebraic identities

    α'_ij = ((e_i ⊙ W_i) · e_j) + b_i  and  c_i = e_i ⊙ (Σ_j α_ij e_j)

which compute exactly the same function with a (B, T, C, C) attention grid
and two batched matmuls.  The returned attention weights are the α_ij the
paper visualizes in Figures 9–10.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import ops
from ..nn.module import Module, Parameter

__all__ = ["FeatureInteractionModule"]


class FeatureInteractionModule(Module):
    """Explicit pairwise feature-interaction learning with attention.

    Parameters
    ----------
    num_features:
        Number of medical features ``|C|``.
    embedding_size:
        Embedding dimension ``e`` of the inputs.
    compression:
        The compression factor ``d`` — output size per feature (Eq. 6).
    rng:
        Generator for weight initialization.
    use_attention:
        When False, interactions are pooled with uniform weights instead
        of the learned attention of Eqs. 4-5 (the attention ablation).
    """

    def __init__(self, num_features, embedding_size, compression, rng,
                 use_attention=True):
        super().__init__()
        self.num_features = num_features
        self.embedding_size = embedding_size
        self.compression = compression
        self.use_attention = use_attention
        # W^α ∈ R^{C×e}, b^α ∈ R^C: one attention scorer per feature i.
        self.attn_weight = Parameter(
            nn.init.glorot_uniform((num_features, embedding_size), rng))
        self.attn_bias = Parameter(np.zeros(num_features))
        # p ∈ R^{2e×d}: shared compression of [e_i; c_i].
        self.compress = Parameter(
            nn.init.glorot_uniform((2 * embedding_size, compression), rng))
        # Exclude self-interactions from the softmax (Eq. 5's j ≠ i).
        self._diag_mask = np.full((num_features, num_features), 0.0)
        np.fill_diagonal(self._diag_mask, -1e9)

    def forward(self, embedded, return_attention=False):
        """Enrich embedded features with attended pairwise interactions.

        Parameters
        ----------
        embedded:
            Tensor (batch, time, features, embedding) from the embedding
            module.
        return_attention:
            Also return the α grid (batch, time, features, features),
            where entry [.., i, j] is feature i's attention on its
            interaction with feature j.

        Returns
        -------
        Tensor (batch, time, features * compression) — the x̃_t sequence —
        and optionally the attention grid.
        """
        if self.use_attention:
            keyed = embedded * self.attn_weight        # e_i ⊙ W_i
            logits = ops.matmul(keyed, embedded.swapaxes(-1, -2))
            logits = logits + self.attn_bias.reshape(-1, 1)
            logits = logits + nn.Tensor(self._diag_mask)
            alpha = ops.softmax(logits, axis=-1)       # (B, T, C, C)
        else:
            uniform = np.full((self.num_features, self.num_features),
                              1.0 / (self.num_features - 1))
            np.fill_diagonal(uniform, 0.0)
            alpha = nn.Tensor(np.broadcast_to(
                uniform, embedded.shape[:2] + uniform.shape).copy())

        summed = ops.matmul(alpha, embedded)           # Σ_j α_ij e_j
        context = embedded * summed                    # c_i = e_i ⊙ Σ α e_j
        enriched = ops.concat([embedded, context], axis=-1)
        compressed = ops.matmul(ops.relu(enriched), self.compress)

        batch, steps = compressed.shape[0], compressed.shape[1]
        flat = compressed.reshape(batch, steps,
                                  self.num_features * self.compression)
        if return_attention:
            return flat, alpha
        return flat
