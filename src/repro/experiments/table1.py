"""Table I — dataset statistics.

Reproduces the paper's Table I rows for both cohorts: admission counts,
survivor / non-survivor and LOS class splits, average records per patient,
feature count, and missing rate without imputation.
"""

from __future__ import annotations

import numpy as np

from ..data import PROFILES, build_dataset
from .formatting import format_metric, render_table

__all__ = ["run_table1", "render_table1"]


def run_table1(scale=None):
    """Compute Table I statistics for both cohorts.

    Returns ``{profile name: statistics dict}`` (see
    :meth:`repro.data.EMRDataset.statistics`).
    """
    results = {}
    for key, profile in PROFILES.items():
        rng = np.random.default_rng(profile.seed)
        admissions = profile.admissions(scale=scale, rng=rng)
        dataset, _ = build_dataset(admissions)
        results[profile.name] = dataset.statistics()
    return results


def render_table1(results):
    """Render the statistics in the paper's Table I layout."""
    names = list(results)
    rows = [
        ["# of admissions"] + [results[n]["admissions"] for n in names],
        ["survivor : non-survivor"] + [
            f"{results[n]['survivor']} : {results[n]['non_survivor']}"
            for n in names],
        ["LOS<=7 : LOS>7"] + [
            f"{results[n]['los_le_7']} : {results[n]['los_gt_7']}"
            for n in names],
        ["avg. # of records per patient"] + [
            format_metric(results[n]["avg_records_per_patient"], 2)
            for n in names],
        ["# of medical features"] + [results[n]["num_features"]
                                     for n in names],
        ["missing rate (without imputation)"] + [
            f"{results[n]['missing_rate'] * 100:.2f}%" for n in names],
    ]
    return render_table([""] + names, rows,
                        title="Table I: dataset statistics")
