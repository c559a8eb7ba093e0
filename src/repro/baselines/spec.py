"""Serializable model specifications.

A :class:`ModelSpec` is the durable identity of a trained model: the
registry name, the feature count, and the hyperparameter overrides that
were passed to the constructor.  It is JSON-able in both directions, so
a training run can persist it into the run directory's ``config.json``
(the :class:`~repro.train.Trainer` does this automatically) and the
serving layer can rebuild the *exact* architecture from a checkpoint
directory without guessing constructor arguments
(:meth:`repro.serve.Predictor.load`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ModelSpec"]


@dataclass(frozen=True)
class ModelSpec:
    """Name + hyperparameters needed to reconstruct a registry model.

    Parameters
    ----------
    name:
        A registry model name (any case; aliases accepted — see
        :data:`repro.baselines.MODEL_ALIASES`).
    num_features:
        Number of input medical features ``|C|``.
    hyperparameters:
        Constructor overrides forwarded to the model builder.  Must be
        JSON-serializable (plain scalars/strings), which every registry
        hyperparameter is.
    """

    name: str
    num_features: int
    hyperparameters: dict = field(default_factory=dict)

    def to_dict(self):
        """JSON-able representation (stored in run-dir ``config.json``)."""
        return {
            "name": self.name,
            "num_features": int(self.num_features),
            "hyperparameters": dict(self.hyperparameters),
        }

    def fingerprint(self):
        """Short stable digest of the spec (replica-consistency checks).

        The :class:`~repro.serve.ReplicaPool` startup handshake compares
        every worker's fingerprint: two processes that rebuilt the same
        name/features/hyperparameters agree, anything else fails loudly.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(name=str(payload["name"]),
                   num_features=int(payload["num_features"]),
                   hyperparameters=dict(payload.get("hyperparameters", {})))

    def build(self, rng=None):
        """Instantiate the model this spec describes.

        ``rng`` seeds the weight initialization; when the weights will be
        overwritten by a checkpoint load anyway (the serving path), it
        may be omitted.
        """
        from .registry import build_model
        if rng is None:
            rng = np.random.default_rng(0)
        return build_model(self, rng=rng)
