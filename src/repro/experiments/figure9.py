"""Figure 9 — feature-level attention for Patient A, with a controlled
modification experiment.

Panel (a): the attention grid over the case-study features at hour 13
(start of the Glucose surge) and hour 35 (Glucose back to normal).

Panel (b): the same grids after rewriting Patient A's Lactate to the
population normal — the paper shows the attention paid by/to Lactate's
partners (MAP, Temp, ...) collapsing toward the uniform level.

The harness checks the paper's two quantitative reads:

* at hour 13, Glucose's attention concentrates on abnormal DLA partners
  (FiO2, HCO3, HR, Lactate, MAP, Temp) over irrelevant ones (HCT, WBC);
* after the Lactate normalization, Lactate's attention to MAP and Temp
  drops toward the uniform 1/(k-1) level.
"""

from __future__ import annotations

import numpy as np

from ..core.interpret import feature_attention_at, modify_feature_to_normal
from .config import default_config
from .interpretability import patient_a_processed, trained_model
from .table2 import ESSENTIAL_FEATURES

__all__ = ["run_figure9", "relevant_vs_irrelevant", "HOURS"]

HOURS = (13, 35)

#: DLA-related partners of Glucose vs. the paper's irrelevant pair.
RELEVANT = ("FiO2", "HCO3", "HR", "Lactate", "MAP", "Temp")
IRRELEVANT = ("HCT", "WBC")


def relevant_vs_irrelevant(matrix, names, anchor="Glucose",
                           relevant=RELEVANT, irrelevant=IRRELEVANT):
    """Mean attention the anchor pays to relevant vs irrelevant partners."""
    row = matrix[names.index(anchor)]
    rel = float(np.mean([row[names.index(n)] for n in relevant]))
    irr = float(np.mean([row[names.index(n)] for n in irrelevant]))
    return rel, irr


def run_figure9(config=None, cohort="physionet2012", seed=0, model=None,
                splits=None):
    """Run the Figure 9 pipeline.

    Returns a dict with, per hour, the original and Lactate-normalized
    attention grids over the essential features, plus the feature order.
    A pre-trained ``(model, splits)`` pair can be supplied to avoid
    retraining across experiments.
    """
    config = config or default_config()
    if model is None or splits is None:
        model, splits, _ = trained_model("ELDA-Net", cohort, "mortality",
                                         config, seed)
    values, ever_observed, _ = patient_a_processed(splits.standardizer)
    modified = modify_feature_to_normal(values, "Lactate")

    result = {"features": list(ESSENTIAL_FEATURES), "hours": HOURS}
    for hour in HOURS:
        original, names = feature_attention_at(
            model, values, ever_observed, hour, features=ESSENTIAL_FEATURES)
        counterfactual, _ = feature_attention_at(
            model, modified, ever_observed, hour, features=ESSENTIAL_FEATURES)
        result[hour] = {"original": original, "modified": counterfactual,
                        "names": names}
    return result
