"""The ELDA framework (paper Section III).

:class:`ELDA` wraps ELDA-Net with the workflow the paper describes around
it: train on historical EMR data, predict on newly arriving admissions,
raise alerts when the predicted risk crosses a clinician-set threshold,
and expose the dual-interaction interpretations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.schema import NUM_FEATURES
from ..nn.serialization import load_weights, save_weights
from ..train import Trainer
from .elda_net import build_variant
from .interpret import (cohort_time_attention, extract_attention,
                        feature_attention_at, interaction_trace)

__all__ = ["ELDA", "RiskAlert"]


@dataclass
class RiskAlert:
    """An alert raised for an admission whose predicted risk is high."""

    admission_index: int
    risk: float
    threshold: float

    def __str__(self):
        return (f"ALERT: admission {self.admission_index} predicted risk "
                f"{self.risk:.2f} exceeds threshold {self.threshold:.2f}")


class ELDA:
    """End-to-end healthcare-analytics framework around ELDA-Net.

    Parameters
    ----------
    task:
        ``"mortality"`` or ``"los"``.
    num_features:
        Number of medical features (defaults to the 37-feature schema).
    variant:
        ELDA-Net variant name (default the full ``"ELDA-Net"``).
    seed:
        Seed for weight initialization and batch shuffling.
    model_kwargs:
        Extra hyperparameters forwarded to :class:`ELDANet`.
    trainer_kwargs:
        Extra settings forwarded to :class:`repro.train.Trainer`
        (``max_epochs``, ``patience``, ``lr``, ...).
    run_dir:
        Optional durable run directory (config.json, metrics.jsonl,
        checkpoints/); resume an interrupted fit with
        ``fit(..., resume=True)``.
    """

    def __init__(self, task="mortality", num_features=NUM_FEATURES,
                 variant="ELDA-Net", seed=0, model_kwargs=None,
                 trainer_kwargs=None, run_dir=None):
        self.task = task
        self.num_features = num_features
        rng = np.random.default_rng(seed)
        self.model = build_variant(variant, num_features, rng,
                                   **(model_kwargs or {}))
        self.trainer = Trainer(self.model, task, seed=seed, run_dir=run_dir,
                               **(trainer_kwargs or {}))
        self.history = None

    # ------------------------------------------------------------------
    # Predictive analytics
    # ------------------------------------------------------------------
    def fit(self, train, validation, resume=False):
        """Train on historical EMR data with early stopping.

        With ``resume=True`` (requires ``run_dir``) the last checkpoint
        is restored and training continues where it left off.
        """
        self.history = self.trainer.fit(train, validation, resume=resume)
        return self.history

    def predict_risk(self, dataset):
        """Predicted outcome probabilities for each admission."""
        return self.trainer.engine.predict_proba(dataset)

    def evaluate(self, dataset):
        """The paper's metric triple on a dataset."""
        return self.trainer.evaluate(dataset)

    def alerts(self, dataset, threshold=0.5):
        """Raise :class:`RiskAlert` objects for high-risk admissions.

        This is the framework's "trigger timely alerts to inform
        clinicians" functionality.
        """
        risks = self.predict_risk(dataset)
        return [RiskAlert(admission_index=i, risk=float(r),
                          threshold=threshold)
                for i, r in enumerate(risks) if r >= threshold]

    # ------------------------------------------------------------------
    # Interpretation
    # ------------------------------------------------------------------
    def time_interpretation(self, dataset):
        """Cohort-level time attention (Figure 8)."""
        return cohort_time_attention(self.model, dataset)

    def feature_interpretation(self, admission_values, ever_observed, hour,
                               features=None):
        """One admission's feature-attention grid at an hour (Figure 9)."""
        return feature_attention_at(self.model, admission_values,
                                    ever_observed, hour, features=features)

    def interaction_traces(self, admission_values, ever_observed, anchor,
                           partners):
        """Attention traces of one feature's interactions (Figure 10)."""
        return interaction_trace(self.model, admission_values, ever_observed,
                                 anchor, partners)

    def attention(self, dataset, with_feature=True):
        """Raw attention extraction for custom analyses."""
        return extract_attention(self.model, dataset,
                                 with_feature=with_feature)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path):
        """Persist the trained weights to an ``.npz`` archive."""
        save_weights(self.model, path)

    def load(self, path):
        """Restore weights saved by :meth:`save`."""
        load_weights(self.model, path)
