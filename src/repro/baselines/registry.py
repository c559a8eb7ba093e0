"""Model registry: build any evaluated model by its paper name.

Covers the 12 baselines of Figure 6 / Table III plus ELDA-Net and its
ablation variants, so experiment runners can be driven by name lists.
Lookup is case-insensitive and goes through an explicit alias table
(:data:`MODEL_ALIASES`), so historical spellings like ``"grud"`` keep
working.  :func:`build_model` also accepts a
:class:`~repro.baselines.spec.ModelSpec`, the serializable form used by
run directories and the serving layer, and attaches the resolved spec to
every model it builds (``model.spec``).
"""

from __future__ import annotations

import numpy as np

from ..core.elda_net import VARIANT_NAMES, build_variant
from .concare import ConCare
from .dipole import Dipole
from .gru import GRUClassifier
from .grud import GRUD
from .pooled import AttentionalFM, FactorizationMachine, LogisticRegression
from .retain import RETAIN
from .sand import SAnD
from .spec import ModelSpec
from .stagenet import StageNet

__all__ = ["BASELINE_NAMES", "ALL_MODEL_NAMES", "MODEL_ALIASES",
           "UnknownModelError", "canonical_name", "build_model"]

#: The baselines of Figure 6, in the paper's presentation order.
BASELINE_NAMES = (
    "LR", "FM", "AFM", "SAnD", "GRU", "RETAIN",
    "Dipole_l", "Dipole_g", "Dipole_c", "StageNet", "GRU-D", "ConCare",
)

ALL_MODEL_NAMES = BASELINE_NAMES + VARIANT_NAMES

#: One builder per canonical (lowercased) name — no duplicate entries.
_BUILDERS = {
    "lr": lambda c, rng, kw: LogisticRegression(c, rng, **kw),
    "fm": lambda c, rng, kw: FactorizationMachine(c, rng, **kw),
    "afm": lambda c, rng, kw: AttentionalFM(c, rng, **kw),
    "sand": lambda c, rng, kw: SAnD(c, rng, **kw),
    "gru": lambda c, rng, kw: GRUClassifier(c, rng, **kw),
    "retain": lambda c, rng, kw: RETAIN(c, rng, **kw),
    "dipole_l": lambda c, rng, kw: Dipole(c, rng, variant="location", **kw),
    "dipole_g": lambda c, rng, kw: Dipole(c, rng, variant="general", **kw),
    "dipole_c": lambda c, rng, kw: Dipole(c, rng, variant="concat", **kw),
    "stagenet": lambda c, rng, kw: StageNet(c, rng, **kw),
    "gru-d": lambda c, rng, kw: GRUD(c, rng, **kw),
    "concare": lambda c, rng, kw: ConCare(c, rng, **kw),
}

#: Accepted alternative spellings (lowercased) -> canonical builder key.
MODEL_ALIASES = {
    "grud": "gru-d",
    "gru_d": "gru-d",
    "logisticregression": "lr",
    "dipole-l": "dipole_l",
    "dipole-g": "dipole_g",
    "dipole-c": "dipole_c",
}


class UnknownModelError(KeyError, ValueError):
    """Raised for a model name the registry cannot resolve.

    Subclasses both ``KeyError`` (failed registry lookup) and
    ``ValueError`` (the historical exception type), so either handler
    style keeps working.
    """

    def __init__(self, name):
        message = (f"unknown model {name!r}; known models: "
                   f"{', '.join(ALL_MODEL_NAMES)}")
        super().__init__(message)
        self.name = name

    def __str__(self):
        # KeyError.__str__ would repr-quote the message; keep it plain.
        return self.args[0]


def canonical_name(name):
    """Resolve any accepted spelling to its canonical lowercase key.

    ELDA-Net variant names resolve to their canonical lowercase form;
    unknown names raise :class:`UnknownModelError`.
    """
    key = str(name).strip().lower()
    key = MODEL_ALIASES.get(key, key)
    if key in _BUILDERS:
        return key
    if key.startswith("elda"):
        return key
    raise UnknownModelError(name)


def build_model(name, num_features=None, rng=None, **kwargs):
    """Instantiate a model by paper name (baseline or ELDA-Net variant).

    Parameters
    ----------
    name:
        One of :data:`ALL_MODEL_NAMES` (case-insensitive, aliases in
        :data:`MODEL_ALIASES` accepted) — or a
        :class:`~repro.baselines.spec.ModelSpec`, in which case
        ``num_features`` and ``kwargs`` come from the spec.
    num_features:
        Number of medical features ``|C|`` (required with a string name).
    rng:
        ``numpy.random.Generator`` for weight initialization (defaults
        to a zero-seeded generator).
    kwargs:
        Forwarded to the model constructor (hyperparameter overrides).

    The built model carries its resolved spec as ``model.spec``, which
    the trainer persists into run-dir ``config.json`` so the serving
    layer can rebuild the exact architecture
    (:meth:`repro.serve.Predictor.load`).
    """
    if isinstance(name, ModelSpec):
        if kwargs:
            raise TypeError("pass hyperparameters inside the ModelSpec, "
                            "not as keyword overrides")
        spec = name
        name = spec.name
        num_features = spec.num_features
        kwargs = dict(spec.hyperparameters)
    else:
        if num_features is None:
            raise TypeError("build_model needs num_features when called "
                            "with a model name (or pass a ModelSpec)")
        spec = ModelSpec(str(name), int(num_features), dict(kwargs))
    if rng is None:
        rng = np.random.default_rng(0)

    key = canonical_name(name)
    if key in _BUILDERS:
        model = _BUILDERS[key](num_features, rng, kwargs)
    else:
        try:
            model = build_variant(name, num_features, rng, **kwargs)
        except ValueError:
            raise UnknownModelError(name) from None
    model.spec = spec
    return model
