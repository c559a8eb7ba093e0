"""Probability-calibration metrics.

Risk scores that drive clinical alerting (Section III's thresholded
alerts) are only actionable if they are calibrated; these metrics
complement the paper's discrimination metrics (AUC-ROC / AUC-PR):

* Brier score — mean squared error of the probability forecast;
* expected calibration error (ECE) — average |confidence − accuracy|
  over equal-width probability bins;
* reliability curve — the data behind a calibration plot.
"""

from __future__ import annotations

import numpy as np

__all__ = ["brier_score", "expected_calibration_error", "reliability_curve"]


def _validate(labels, scores):
    labels = np.asarray(labels, dtype=float).reshape(-1)
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same length")
    if labels.size == 0:
        raise ValueError("empty inputs")
    if scores.min() < 0 or scores.max() > 1:
        raise ValueError("scores must be probabilities in [0, 1]")
    return labels, scores


def brier_score(labels, scores):
    """Mean squared error between outcomes and predicted probabilities."""
    labels, scores = _validate(labels, scores)
    return float(np.mean((scores - labels) ** 2))


def reliability_curve(labels, scores, num_bins=10):
    """Per-bin mean confidence, observed frequency, and count.

    Returns three arrays of length ``num_bins``; empty bins hold NaN
    confidence/frequency and zero count.
    """
    labels, scores = _validate(labels, scores)
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    bins = np.clip(np.digitize(scores, edges[1:-1]), 0, num_bins - 1)
    confidence = np.full(num_bins, np.nan)
    frequency = np.full(num_bins, np.nan)
    counts = np.zeros(num_bins, dtype=int)
    for b in range(num_bins):
        members = bins == b
        counts[b] = int(members.sum())
        if counts[b]:
            confidence[b] = float(scores[members].mean())
            frequency[b] = float(labels[members].mean())
    return confidence, frequency, counts


def expected_calibration_error(labels, scores, num_bins=10):
    """Count-weighted average of |observed frequency − mean confidence|."""
    labels, scores = _validate(labels, scores)
    confidence, frequency, counts = reliability_curve(labels, scores,
                                                      num_bins=num_bins)
    occupied = counts > 0
    gaps = np.abs(frequency[occupied] - confidence[occupied])
    return float(np.sum(gaps * counts[occupied]) / counts.sum())
