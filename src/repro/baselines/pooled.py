"""Non-temporal baselines: LR, FM, and AFM.

Per the paper's protocol these models consume, for each admission, the
mean over time of each feature's values — a 37-dimensional static vector.

* :class:`LogisticRegression` — linear model (Hosmer et al.);
* :class:`FactorizationMachine` — Rendle 2010, Eq. 1 of the paper, with
  the O(C·e) inner-product identity;
* :class:`AttentionalFM` — Xiao et al. 2017: pairwise element-wise
  products scored by a small attention MLP and pooled with softmax
  weights.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import ops
from ..nn.inference import InferenceMixin
from ..nn.module import Module, Parameter

__all__ = ["LogisticRegression", "FactorizationMachine", "AttentionalFM",
           "pooled_input"]


def pooled_input(batch):
    """Mean over time of the standardized, imputed values: (B, C).

    Routed through :func:`repro.nn.ops.mean` (not raw array math) so the
    profiler attributes the pooling like any other op.
    """
    return ops.mean(nn.Tensor(batch.values), axis=1)


class LogisticRegression(Module, InferenceMixin):
    """Plain logistic regression on time-averaged features."""

    def __init__(self, num_features, rng):
        super().__init__()
        self.weight = Parameter(nn.init.glorot_uniform((num_features, 1), rng))
        self.bias = Parameter(np.zeros(1))

    def forward_batch(self, batch):
        x = pooled_input(batch)
        return (ops.matmul(x, self.weight) + self.bias).reshape(-1)


class FactorizationMachine(Module, InferenceMixin):
    """Second-order factorization machine (paper Eq. 1).

    The pairwise term uses Rendle's linear-time identity:
    ``0.5 * sum_k [ (Σ_i v_ik x_i)^2 − Σ_i v_ik^2 x_i^2 ]``.
    """

    def __init__(self, num_features, rng, embedding_size=16):
        super().__init__()
        self.bias = Parameter(np.zeros(1))
        self.linear = Parameter(nn.init.glorot_uniform((num_features, 1), rng))
        self.factors = Parameter(
            nn.init.normal((num_features, embedding_size), rng, std=0.05))

    def forward_batch(self, batch):
        x = pooled_input(batch)
        linear_term = ops.matmul(x, self.linear).reshape(-1)
        summed = ops.matmul(x, self.factors)                 # (B, e)
        summed_sq = summed * summed
        sq_summed = ops.matmul(x * x, self.factors * self.factors)
        pairwise = 0.5 * ops.sum(summed_sq - sq_summed, axis=-1)
        return self.bias.reshape(1) + linear_term + pairwise


class AttentionalFM(Module, InferenceMixin):
    """Attentional factorization machine (Xiao et al., IJCAI 2017).

    Each pairwise interaction ``(v_i x_i) ⊙ (v_j x_j)`` is scored by a
    one-hidden-layer attention network; the softmax-weighted sum is
    projected to the final score.
    """

    def __init__(self, num_features, rng, embedding_size=16, attention_size=8):
        super().__init__()
        self.num_features = num_features
        self.embedding_size = embedding_size
        self.bias = Parameter(np.zeros(1))
        self.linear = Parameter(nn.init.glorot_uniform((num_features, 1), rng))
        self.factors = Parameter(
            nn.init.normal((num_features, embedding_size), rng, std=0.05))
        self.attn_w = Parameter(
            nn.init.glorot_uniform((embedding_size, attention_size), rng))
        self.attn_b = Parameter(np.zeros(attention_size))
        self.attn_h = Parameter(nn.init.glorot_uniform((attention_size, 1), rng))
        self.project = Parameter(nn.init.glorot_uniform((embedding_size, 1), rng))
        # Upper-triangular pair index (i < j), fixed for the feature count.
        self._rows, self._cols = np.triu_indices(num_features, k=1)

    def forward_batch(self, batch):
        x = pooled_input(batch)
        linear_term = ops.matmul(x, self.linear).reshape(-1)
        scaled = x.reshape(-1, self.num_features, 1) * self.factors  # (B,C,e)
        left = scaled[:, self._rows, :]
        right = scaled[:, self._cols, :]
        products = left * right                                      # (B,P,e)
        hidden = ops.relu(ops.matmul(products, self.attn_w) + self.attn_b)
        scores = ops.matmul(hidden, self.attn_h)                     # (B,P,1)
        weights = ops.softmax(scores, axis=1)
        pooled = ops.sum(weights * products, axis=1)                 # (B,e)
        interaction_term = ops.matmul(pooled, self.project).reshape(-1)
        return self.bias.reshape(1) + linear_term + interaction_term
