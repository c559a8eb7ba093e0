"""Shared helpers for the interpretability experiments (Figures 8-10, Table II).

These experiments need a trained ELDA-Net and the paper's case-study
subject "Patient A" preprocessed exactly like the training cohort.
"""

from __future__ import annotations

import numpy as np

from ..data import load_cohort, make_patient_a
from ..data.preprocess import clean_values, impute
from .config import default_config
from .runner import train_and_evaluate

__all__ = ["trained_model", "patient_a_processed"]


def trained_model(model_name="ELDA-Net", cohort="physionet2012",
                  task="mortality", config=None, seed=0):
    """Train one model for interpretability analysis.

    Returns ``(model, splits, metrics)``; the model holds its
    best-on-validation weights.
    """
    config = config or default_config()
    splits = load_cohort(cohort, scale=config.scale,
                         fractions=config.fractions)
    metrics, model = train_and_evaluate(model_name, splits, task, config,
                                        seed)
    return model, splits, metrics


def patient_a_processed(standardizer, seed=7):
    """Build Patient A and run the cohort's preprocessing pipeline.

    Returns ``(values, ever_observed, admission)`` where ``values`` is the
    (T, C) standardized + imputed matrix ready for the model.
    """
    admission = make_patient_a(seed=seed)
    raw = clean_values(admission.values[None])
    mask = ~np.isnan(raw)
    standardized = standardizer.transform(raw)
    values = impute(standardized, mask)[0]
    ever_observed = mask[0].any(axis=0)
    return values, ever_observed, admission
