"""Interpretability analyses (paper Section V-D).

Functions here extract and aggregate the two attention signals that make
ELDA "explicit":

* **time level** — β weights over the 47 earlier hours, per patient and
  averaged per cohort (Figure 8);
* **feature level** — the α grid at a given hour (the rows of Figure 9),
  attention traces of one feature's interactions over time (Figure 10),
  and the controlled feature-modification experiment in which an abnormal
  feature is rewritten to the population normal and the attention response
  is re-measured (Figure 9b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.dataset import iterate_batches
from ..data.schema import feature_index

__all__ = ["AttentionExtract", "extract_attention", "cohort_time_attention",
           "feature_attention_at", "interaction_trace",
           "modify_feature_to_normal"]


@dataclass
class AttentionExtract:
    """Attention weights for a set of admissions.

    Attributes
    ----------
    time:
        β of shape (N, T-1); rows sum to 1.
    feature:
        α of shape (N, T, C, C); each row [n, t, i, :] sums to 1 and the
        diagonal is zero.  ``None`` for variants without the feature
        module.
    """

    time: np.ndarray | None
    feature: np.ndarray | None


def extract_attention(model, dataset, batch_size=64, with_feature=True):
    """Run the model in inference mode and collect attention weights.

    ``with_feature=False`` skips storing the (N, T, C, C) grid, which for
    large cohorts is the memory-dominant piece.
    """
    model.eval()
    time_rows = []
    feature_rows = []
    with nn.no_grad():
        for batch, _ in iterate_batches(dataset, "mortality", batch_size):
            _, attention = model(batch.values,
                                 ever_observed=batch.ever_observed,
                                 return_attention=True)
            if "time" in attention:
                time_rows.append(attention["time"].data)
            if with_feature and "feature" in attention:
                feature_rows.append(attention["feature"].data)
    model.train()
    return AttentionExtract(
        time=np.concatenate(time_rows) if time_rows else None,
        feature=np.concatenate(feature_rows) if feature_rows else None,
    )


def cohort_time_attention(model, dataset, batch_size=64):
    """Figure 8 data: per-patient and mean β for survivors vs non-survivors.

    Returns a dict with keys ``"survivor"`` and ``"non_survivor"``, each a
    dict holding ``"per_patient"`` (n, T-1) and ``"mean"`` (T-1,).
    """
    extract = extract_attention(model, dataset, batch_size=batch_size,
                                with_feature=False)
    if extract.time is None:
        raise ValueError("model exposes no time-level attention")
    labels = dataset.labels("mortality")
    result = {}
    for name, group_value in (("survivor", 0), ("non_survivor", 1)):
        rows = extract.time[labels == group_value]
        result[name] = {
            "per_patient": rows,
            "mean": rows.mean(axis=0) if len(rows) else np.zeros(
                extract.time.shape[1]),
        }
    return result


def feature_attention_at(model, admission_values, ever_observed, hour,
                         features=None, feature_names=None):
    """Figure 9 data: the α grid restricted to chosen features at one hour.

    Parameters
    ----------
    model:
        A trained ELDA-Net (with the feature module).
    admission_values:
        Array (T, C) — one admission, standardized and imputed.
    ever_observed:
        Boolean (C,) for the admission.
    hour:
        Time index to inspect.
    features:
        Feature names to keep (rows *and* columns); all when ``None``.
    feature_names:
        Full schema names; defaults to the standard 37-feature schema.

    Returns
    -------
    ``(matrix, names)`` where ``matrix[i, j]`` is the attention feature
    ``names[i]`` pays to its interaction with ``names[j]`` (row-wise
    percentages re-normalized over the kept columns).
    """
    from ..data.schema import FEATURE_NAMES
    feature_names = feature_names or FEATURE_NAMES
    model.eval()
    with nn.no_grad():
        _, attention = model(admission_values[None],
                             ever_observed=np.asarray(ever_observed)[None],
                             return_attention=True)
    model.train()
    alpha = attention["feature"].data[0, hour]          # (C, C)
    if features is None:
        return alpha, list(feature_names)
    idx = [feature_index(name) for name in features]
    sub = alpha[np.ix_(idx, idx)].copy()
    np.fill_diagonal(sub, 0.0)
    row_sums = sub.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0] = 1.0
    return sub / row_sums, list(features)


def interaction_trace(model, admission_values, ever_observed, anchor,
                      partners):
    """Figure 10 data: attention of ``anchor``'s interactions over time.

    Returns a dict ``partner name -> (T,) attention trace`` — the weight
    the anchor feature pays to its interaction with each partner at every
    hour.
    """
    model.eval()
    with nn.no_grad():
        _, attention = model(admission_values[None],
                             ever_observed=np.asarray(ever_observed)[None],
                             return_attention=True)
    model.train()
    alpha = attention["feature"].data[0]                # (T, C, C)
    row = feature_index(anchor)
    return {name: alpha[:, row, feature_index(name)] for name in partners}


def modify_feature_to_normal(admission_values, feature):
    """Controlled experiment: rewrite one feature to the population normal.

    On standardized data the population normal is 0; the paper's Figure 9b
    rewrites Patient A's Lactate this way and shows the attention paid to
    Lactate-related features collapsing to an average level.

    Returns a modified copy of the (T, C) value matrix.
    """
    modified = np.array(admission_values, copy=True)
    modified[:, feature_index(feature)] = 0.0
    return modified
