"""Figure 8 — time-level interaction attention, survivors vs non-survivors.

Trains ELDA-Net and Dipole_c on the mortality task, extracts each model's
time attention over the test cohort, and reports the per-group mean curves
(the red lines of Figure 8) plus per-patient rows (the blue lines).

The paper's qualitative claims the harness checks:

* ELDA's attention mass concentrates on *later* hours in both groups
  (the recency effect of interacting with ``h_T``);
* non-survivors' curves are more varied/peaked than survivors'
  (acute events create crucial time steps);
* Dipole_c separates the two cohorts less than ELDA does.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.interpret import cohort_time_attention
from ..data.dataset import iterate_batches
from .config import default_config
from .interpretability import trained_model

__all__ = ["run_figure8", "dipole_time_attention", "attention_summary"]


def dipole_time_attention(model, dataset, batch_size=64):
    """Cohort-mean attention curves for a trained Dipole model."""
    rows = []
    model.eval()
    with nn.no_grad():
        for batch, _ in iterate_batches(dataset, "mortality", batch_size):
            _, weights = model.forward(nn.Tensor(batch.values),
                                       return_attention=True)
            rows.append(weights.data)
    model.train()
    attention = np.concatenate(rows)
    labels = dataset.labels("mortality")
    return {
        "survivor": {"per_patient": attention[labels == 0],
                     "mean": attention[labels == 0].mean(axis=0)},
        "non_survivor": {"per_patient": attention[labels == 1],
                         "mean": attention[labels == 1].mean(axis=0)},
    }


def attention_summary(curve):
    """Scalar summaries of a mean attention curve.

    Returns ``late_share`` (mass on the last third of hours) and
    ``peakiness`` (max / uniform weight).
    """
    curve = np.asarray(curve, dtype=float)
    steps = curve.shape[0]
    third = steps - steps // 3
    return {
        "late_share": float(curve[third:].sum()),
        "peakiness": float(curve.max() * steps),
    }


def run_figure8(config=None, cohort="physionet2012", seed=0, model=None,
                splits=None, model_metrics=None):
    """Run the full Figure 8 pipeline for ELDA-Net and Dipole_c.

    Returns ``{"ELDA-Net": cohort curves, "Dipole_c": cohort curves,
    "metrics": ...}`` where cohort curves follow
    :func:`repro.core.interpret.cohort_time_attention`'s layout.
    A pre-trained ELDA ``(model, splits)`` pair can be supplied to avoid
    retraining across experiments.
    """
    config = config or default_config()
    if model is None or splits is None:
        elda, splits, elda_metrics = trained_model("ELDA-Net", cohort,
                                                   "mortality", config, seed)
    else:
        elda, elda_metrics = model, (model_metrics or {})
    elda_curves = cohort_time_attention(elda, splits.test)

    from .runner import train_and_evaluate
    dipole_metrics, dipole = train_and_evaluate("Dipole_c", splits,
                                                "mortality", config, seed)
    dipole_curves = dipole_time_attention(dipole, splits.test)
    return {
        "ELDA-Net": elda_curves,
        "Dipole_c": dipole_curves,
        "metrics": {"ELDA-Net": elda_metrics, "Dipole_c": dipole_metrics},
    }
