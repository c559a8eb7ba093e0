"""Shared train-and-evaluate machinery for the model-comparison figures.

:func:`train_and_evaluate` runs one (model, cohort, task, seed) cell of
the evaluation grid; :func:`run_grid` sweeps a list of models over seeds
and aggregates means — the building block of Figure 6 and Figure 7.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..baselines import ModelSpec, build_model
from ..data import NUM_FEATURES, load_cohort
from ..train import Trainer

__all__ = ["train_and_evaluate", "run_grid", "aggregate_seeds"]


def train_and_evaluate(model_name, splits, task, config, seed,
                       model_kwargs=None, run_dir=None, callbacks=()):
    """Train one model and return its test metrics plus bookkeeping.

    Returns a dict with the paper's metric triple and ``params``,
    ``seconds_per_batch``, ``prediction_seconds``, ``history``.

    All epoch/early-stopping mechanics live in the training engine;
    ``run_dir`` makes the cell durable (config.json / metrics.jsonl /
    checkpoints) and ``callbacks`` appends extra
    :class:`repro.train.Callback` hooks to the default stack.
    """
    rng = np.random.default_rng(seed)
    kwargs = dict(config.model_overrides)
    kwargs.update(model_kwargs or {})
    # The spec (not ad-hoc kwargs) is the durable identity of the cell:
    # it lands in the run directory's config.json, from which
    # repro.serve.Predictor can rebuild the exact architecture.
    spec = ModelSpec(model_name, NUM_FEATURES, kwargs)
    model = build_model(spec, rng=rng)
    trainer = Trainer(model, task, run_dir=run_dir, callbacks=callbacks,
                      **config.trainer_kwargs(seed))
    history = trainer.fit(splits.train, splits.validation)
    metrics = trainer.evaluate(splits.test)
    metrics.update(
        params=model.num_parameters(),
        seconds_per_batch=history.seconds_per_batch,
        prediction_seconds=history.prediction_seconds_per_sample,
        history=history,
    )
    return metrics, model


def aggregate_seeds(per_seed):
    """Mean (and std) of the metric triple across repeated runs."""
    keys = ("bce", "auc_roc", "auc_pr")
    out = {}
    for key in keys:
        values = np.array([m[key] for m in per_seed], dtype=float)
        out[key] = float(np.nanmean(values))
        out[f"{key}_std"] = float(np.nanstd(values))
    out["params"] = per_seed[0]["params"]
    out["seconds_per_batch"] = float(np.mean(
        [m["seconds_per_batch"] for m in per_seed]))
    out["prediction_seconds"] = float(np.mean(
        [m["prediction_seconds"] for m in per_seed]))
    return out


def run_grid(model_names, cohort, task, config, scale=None, run_root=None):
    """Evaluate a list of models on one (cohort, task) cell.

    Returns ``{model name: aggregated metrics}``.  The cohort is sampled
    once and shared across models and seeds, mirroring the paper's fixed
    train/validation/test split.  With ``run_root`` every (model, seed)
    cell leaves a durable run directory under
    ``run_root/<cohort>-<task>/<model>/seed<k>/``.
    """
    splits = load_cohort(cohort, scale=scale or config.scale,
                         fractions=config.fractions)
    results = {}
    for name in model_names:
        per_seed = []
        for seed in config.seeds():
            run_dir = None
            if run_root is not None:
                run_dir = (Path(run_root) / f"{cohort}-{task}"
                           / name / f"seed{seed}")
            metrics, _ = train_and_evaluate(name, splits, task, config, seed,
                                            run_dir=run_dir)
            per_seed.append(metrics)
        results[name] = aggregate_seeds(per_seed)
    return results
