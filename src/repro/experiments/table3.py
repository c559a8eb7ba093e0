"""Table III — model complexity and runtime.

For every model of the comparison: total trainable parameters, training
seconds per batch (batch size 64), and prediction milliseconds per sample.
Absolute numbers differ from the paper's GPU testbed (this substrate is a
numpy autodiff engine on CPU); the *shape* checks are

* LR / FM / AFM are tiny (<1k parameters);
* ConCare is the largest model; ELDA-Net sits in the tens of thousands;
* ELDA-Net-T adds little cost over GRU, ELDA-Net-F adds more (the paper's
  ordering of the variants).
"""

from __future__ import annotations

import time

import numpy as np

from .. import nn
from ..baselines import BASELINE_NAMES, build_model
from ..data import NUM_FEATURES, load_cohort
from ..nn.losses import bce_with_logits
from .config import default_config
from .formatting import format_metric, render_table

__all__ = ["TABLE3_MODELS", "run_table3", "render_table3"]

TABLE3_MODELS = BASELINE_NAMES + ("ELDA-Net-T", "ELDA-Net-Fbi",
                                  "ELDA-Net-Ffm", "ELDA-Net")


def run_table3(config=None, models=TABLE3_MODELS, num_batches=3):
    """Measure parameters and timings for every model.

    Uses a few real training steps (forward + backward + update) and a
    few inference passes on batches of 64 admissions.

    Returns ``{model: {"params", "train_seconds_per_batch",
    "predict_ms_per_sample"}}``.
    """
    config = config or default_config()
    splits = load_cohort("physionet2012", scale=config.scale)
    batch = splits.train.subset(np.arange(min(64, len(splits.train))))
    labels = batch.labels("mortality").astype(float)

    results = {}
    for name in models:
        rng = np.random.default_rng(0)
        model = build_model(name, NUM_FEATURES, rng)
        optimizer = nn.Adam(model.parameters(), lr=1e-3)

        train_times = []
        for _ in range(num_batches):
            started = time.perf_counter()
            optimizer.zero_grad()
            logits = model.forward_batch(batch)
            loss = bce_with_logits(logits, labels)
            loss.backward()
            optimizer.step()
            train_times.append(time.perf_counter() - started)

        predict_times = []
        model.eval()
        with nn.no_grad():
            for _ in range(num_batches):
                started = time.perf_counter()
                model.forward_batch(batch)
                predict_times.append(time.perf_counter() - started)
        model.train()

        results[name] = {
            "params": model.num_parameters(),
            "train_seconds_per_batch": float(np.median(train_times)),
            "predict_ms_per_sample": float(
                np.median(predict_times) / len(batch) * 1000.0),
        }
    return results


def render_table3(results):
    """Render in the paper's Table III layout."""
    rows = [
        [name,
         str(metrics["params"]),
         format_metric(metrics["train_seconds_per_batch"], 3),
         format_metric(metrics["predict_ms_per_sample"], 3)]
        for name, metrics in results.items()
    ]
    return render_table(
        ["model", "# of param", "train s/batch", "predict ms/sample"],
        rows, title="Table III: parameters and runtime")
