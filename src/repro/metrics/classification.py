"""Binary-classification metrics used throughout the evaluation.

Implements the paper's three reported metrics — BCE loss, AUC-ROC, and
AUC-PR — from first principles on numpy, plus accuracy/F1 helpers and a
bootstrap confidence interval used by the benchmark harness.

AUC-ROC uses the exact Mann–Whitney statistic (ties counted as 1/2).
AUC-PR is average precision (step-wise integration of the PR curve), the
convention of scikit-learn and of the healthcare-analytics literature the
paper compares against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["auc_roc", "auc_pr", "bce_loss", "accuracy", "f1_score",
           "precision_recall_curve", "roc_curve", "bootstrap_metric",
           "evaluate_all"]

_EPS = 1e-7


def _validate(labels, scores):
    labels = np.asarray(labels, dtype=float).reshape(-1)
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError(f"labels {labels.shape} and scores {scores.shape} "
                         "must have the same length")
    if labels.size == 0:
        raise ValueError("empty inputs")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be binary (0/1)")
    return labels, scores


def auc_roc(labels, scores):
    """Area under the ROC curve via the Mann–Whitney U statistic.

    Returns NaN when only one class is present (AUC undefined).
    """
    labels, scores = _validate(labels, scores)
    positives = labels == 1.0
    n_pos = int(positives.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    # Midranks handle ties exactly.
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.size)
    sorted_scores = scores[order]
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[positives].sum()
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def roc_curve(labels, scores):
    """Return (fpr, tpr, thresholds) sorted by decreasing threshold."""
    labels, scores = _validate(labels, scores)
    order = np.argsort(-scores, kind="mergesort")
    labels = labels[order]
    scores = scores[order]
    distinct = np.where(np.diff(scores))[0]
    cut = np.r_[distinct, labels.size - 1]
    tps = np.cumsum(labels)[cut]
    fps = (cut + 1) - tps
    n_pos = labels.sum()
    n_neg = labels.size - n_pos
    tpr = np.r_[0.0, tps / max(n_pos, _EPS)]
    fpr = np.r_[0.0, fps / max(n_neg, _EPS)]
    thresholds = np.r_[np.inf, scores[cut]]
    return fpr, tpr, thresholds


def precision_recall_curve(labels, scores):
    """Return (precision, recall, thresholds) from high to low threshold."""
    labels, scores = _validate(labels, scores)
    order = np.argsort(-scores, kind="mergesort")
    labels = labels[order]
    scores = scores[order]
    distinct = np.where(np.diff(scores))[0]
    cut = np.r_[distinct, labels.size - 1]
    tps = np.cumsum(labels)[cut]
    predicted_pos = cut + 1
    precision = tps / predicted_pos
    n_pos = labels.sum()
    recall = tps / max(n_pos, _EPS)
    return precision, recall, scores[cut]


def auc_pr(labels, scores):
    """Average precision (area under the PR curve, step interpolation)."""
    labels, scores = _validate(labels, scores)
    if labels.sum() == 0:
        return float("nan")
    precision, recall, _ = precision_recall_curve(labels, scores)
    recall = np.r_[0.0, recall]
    return float(np.sum(np.diff(recall) * precision))


def bce_loss(labels, scores):
    """Mean binary cross-entropy of probability scores."""
    labels, scores = _validate(labels, scores)
    p = np.clip(scores, _EPS, 1.0 - _EPS)
    return float(-(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean())


def accuracy(labels, scores, threshold=0.5):
    """Fraction of correct predictions at the given threshold."""
    labels, scores = _validate(labels, scores)
    return float(((scores >= threshold) == (labels == 1.0)).mean())


def f1_score(labels, scores, threshold=0.5):
    """F1 of the positive class at the given threshold."""
    labels, scores = _validate(labels, scores)
    predicted = scores >= threshold
    tp = float((predicted & (labels == 1.0)).sum())
    fp = float((predicted & (labels == 0.0)).sum())
    fn = float((~predicted & (labels == 1.0)).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def bootstrap_metric(labels, scores, metric, n_resamples=200, seed=0,
                     alpha=0.05):
    """Percentile bootstrap CI for any metric(labels, scores) function.

    Returns ``(point, low, high)``.
    """
    labels, scores = _validate(labels, scores)
    rng = np.random.default_rng(seed)
    point = metric(labels, scores)
    stats = []
    for _ in range(n_resamples):
        idx = rng.integers(0, labels.size, labels.size)
        try:
            value = metric(labels[idx], scores[idx])
        except ValueError:
            continue
        if not np.isnan(value):
            stats.append(value)
    if not stats:
        return point, float("nan"), float("nan")
    low, high = np.percentile(stats, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return point, float(low), float(high)


def evaluate_all(labels, scores):
    """The paper's metric triple: BCE loss, AUC-ROC, AUC-PR."""
    return {
        "bce": bce_loss(labels, scores),
        "auc_roc": auc_roc(labels, scores),
        "auc_pr": auc_pr(labels, scores),
    }
