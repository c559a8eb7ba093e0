"""First-class finite-difference gradient checking.

This module is the ground truth for the autodiff engine.  It provides:

* :func:`numeric_gradient` — central differences of a scalar function of
  numpy arrays;
* :func:`gradcheck` — compare the backward pass of an arbitrary tensor
  expression against central differences, with per-input masking and an
  ``atol + rtol * |numeric|`` acceptance criterion;
* :func:`check_module` — perturb every parameter of a whole
  :class:`~repro.nn.module.Module` (optionally subsampling entries of
  large parameter tensors), so complete models can be gradchecked
  end-to-end rather than op by op.

Failures raise :class:`GradcheckFailure`, an ``AssertionError`` subclass,
so the helpers drop straight into pytest.  Both entry points also return a
report object for callers that want to inspect per-input errors.

Both helpers run in **float64 regardless of the ambient precision
policy**: finite differencing at ``eps ≈ 1e-6`` is meaningless in
float32, so :func:`gradcheck` scopes ``dtype.autocast(np.float64)``
around graph construction and every evaluation, and
:func:`check_module` additionally upcasts the module's parameters for
the duration of the check (float32 → float64 → float32 is lossless, so
the model comes back bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dtype import autocast
from .tensor import Tensor, no_grad

__all__ = ["GradcheckFailure", "GradcheckReport", "numeric_gradient",
           "gradcheck", "check_module"]


class GradcheckFailure(AssertionError):
    """Raised when an analytic gradient disagrees with finite differences."""


@dataclass
class GradcheckReport:
    """Per-input comparison of analytic and numeric gradients."""

    #: ``(input_name, max_abs_error, worst_analytic, worst_numeric)`` rows.
    entries: list = field(default_factory=list)
    #: Rows of :attr:`entries` that violated the tolerance.
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    @property
    def max_error(self):
        return max((entry[1] for entry in self.entries), default=0.0)

    def summary(self):
        lines = [f"  {name}: max |analytic - numeric| = {err:.3e} "
                 f"(analytic={analytic:.6g}, numeric={numeric:.6g})"
                 for name, err, analytic, numeric in
                 (self.failures or self.entries)]
        return "\n".join(lines)

    def _record(self, name, analytic, numeric, atol, rtol):
        diff = np.abs(analytic - numeric)
        bad = diff > (atol + rtol * np.abs(numeric))
        worst = int(np.argmax(diff)) if diff.size else 0
        flat_a = np.asarray(analytic).reshape(-1)
        flat_n = np.asarray(numeric).reshape(-1)
        entry = (name, float(diff.max()) if diff.size else 0.0,
                 float(flat_a[worst]) if flat_a.size else 0.0,
                 float(flat_n[worst]) if flat_n.size else 0.0)
        self.entries.append(entry)
        if bad.any():
            self.failures.append(entry)


def numeric_gradient(fn, arrays, eps=1e-6):
    """Central finite differences of a scalar function of numpy arrays.

    ``fn()`` takes no arguments and must read the current contents of
    ``arrays``; each array is perturbed in place and restored.
    """
    grads = []
    for target in arrays:
        grad = np.zeros_like(target)
        # .flat writes through to the original memory even when the array
        # is non-contiguous (reshape(-1) would silently return a copy
        # there, making every perturbation a no-op).
        flat = target.flat
        grad_flat = grad.flat
        for i in range(target.size):
            original = flat[i]
            flat[i] = original + eps
            upper = fn()
            flat[i] = original - eps
            lower = fn()
            flat[i] = original
            grad_flat[i] = (upper - lower) / (2 * eps)
        grads.append(grad)
    return grads


def gradcheck(build_fn, *arrays, eps=1e-6, atol=2e-5, rtol=1e-4,
              check_inputs=None, raise_on_failure=True):
    """Check ``build_fn``'s backward pass against central differences.

    Parameters
    ----------
    build_fn:
        ``build_fn(*tensors) -> scalar Tensor``; called with one
        :class:`Tensor` per entry of ``arrays``.
    arrays:
        Numpy inputs (mutated in place during differencing, restored
        after).  Broadcasting shapes are fine.
    eps:
        Finite-difference step.
    atol, rtol:
        Acceptance criterion ``|analytic - numeric| <= atol + rtol * |numeric|``.
    check_inputs:
        Optional boolean mask (one entry per input); ``False`` marks an
        input as non-differentiable, so it neither requires grad nor is
        perturbed.  Defaults to checking every input.
    raise_on_failure:
        When true (default), raise :class:`GradcheckFailure` on mismatch.

    Returns
    -------
    A :class:`GradcheckReport` with one entry per checked input.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if check_inputs is None:
        check_inputs = [True] * len(arrays)
    if len(check_inputs) != len(arrays):
        raise ValueError("check_inputs must have one entry per input")

    with autocast(np.float64):
        tensors = [Tensor(a, requires_grad=checked)
                   for a, checked in zip(arrays, check_inputs)]
        out = build_fn(*tensors)
        if out.size != 1:
            raise ValueError("build_fn must return a scalar tensor; got shape "
                             f"{out.shape}")
        out.backward()

    def evaluate():
        with autocast(np.float64), no_grad():
            fresh = [Tensor(a) for a in arrays]
            return build_fn(*fresh).item()

    targets = [a for a, checked in zip(arrays, check_inputs) if checked]
    numeric = iter(numeric_gradient(evaluate, targets, eps=eps))
    report = GradcheckReport()
    for index, (tensor, checked) in enumerate(zip(tensors, check_inputs)):
        if not checked:
            continue
        expected = next(numeric)
        analytic = tensor.grad if tensor.grad is not None \
            else np.zeros_like(tensor.data)
        report._record(f"input[{index}]", analytic, expected, atol, rtol)
    if report.failures and raise_on_failure:
        raise GradcheckFailure("gradient mismatch against finite differences:\n"
                               + report.summary())
    return report


def check_module(module, loss_fn, eps=1e-5, atol=1e-4, rtol=1e-3,
                 max_entries=8, rng=None, params=None, eval_mode=True,
                 raise_on_failure=True):
    """Gradcheck every parameter of a :class:`Module` end-to-end.

    Runs one forward/backward pass to collect analytic gradients, then
    perturbs parameter entries in place and compares against central
    differences.  Large parameter tensors are subsampled (``max_entries``
    random entries each), keeping whole-model checks tractable.

    Parameters
    ----------
    module:
        The module under test.
    loss_fn:
        ``loss_fn(module) -> scalar Tensor``.  Must be deterministic:
        seed any randomness and avoid stateful sampling (dropout is
        handled by ``eval_mode``).
    eps, atol, rtol:
        Finite-difference step and acceptance criterion (looser defaults
        than :func:`gradcheck`: whole-model losses compose many ops).
    max_entries:
        Number of entries checked per parameter tensor (``None`` checks
        every entry).
    rng:
        Generator used to subsample entries (default: seeded fresh).
    params:
        Optional iterable of parameter-name prefixes to restrict the
        check (e.g. ``["cell.w_ih"]``); default checks every parameter.
    eval_mode:
        Put the module in eval mode during the check (disables dropout,
        which would otherwise break determinism); restored afterwards.

    Returns
    -------
    A :class:`GradcheckReport` with one entry per checked parameter.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    was_training = getattr(module, "training", True)
    # Finite differencing needs double precision; upcast the parameters
    # for the duration of the check and restore their dtypes afterwards
    # (float32 -> float64 -> float32 round-trips bit-identically).
    original_dtypes = [(p, p.data.dtype) for _, p in module.named_parameters()]
    module.to(np.float64)
    if eval_mode:
        module.eval()
    try:
        named = list(module.named_parameters())
        if params is not None:
            prefixes = tuple(params)
            named = [(n, p) for n, p in named if n.startswith(prefixes)]
            if not named:
                raise ValueError(f"no parameters match prefixes {prefixes!r}")

        module.zero_grad()
        with autocast(np.float64):
            loss = loss_fn(module)
            if loss.size != 1:
                raise ValueError("loss_fn must return a scalar tensor; "
                                 f"got shape {loss.shape}")
            loss.backward()
        analytic = {name: (p.grad.copy() if p.grad is not None
                           else np.zeros_like(p.data))
                    for name, p in named}
        module.zero_grad()

        def evaluate():
            with autocast(np.float64), no_grad():
                return loss_fn(module).item()

        report = GradcheckReport()
        for name, param in named:
            # .flat writes through even for non-contiguous parameters
            # (e.g. orthogonal-initialized weights), where reshape(-1)
            # would return a copy and the perturbation would be a no-op.
            flat = param.data.flat
            size = param.data.size
            if max_entries is None or size <= max_entries:
                indices = np.arange(size)
            else:
                indices = rng.choice(size, size=max_entries,
                                     replace=False)
            analytic_flat = np.ravel(analytic[name])
            picked_analytic = analytic_flat[indices]
            picked_numeric = np.empty(len(indices))
            for k, i in enumerate(indices):
                original = flat[i]
                flat[i] = original + eps
                upper = evaluate()
                flat[i] = original - eps
                lower = evaluate()
                flat[i] = original
                picked_numeric[k] = (upper - lower) / (2 * eps)
            report._record(name, picked_analytic, picked_numeric, atol, rtol)
        if report.failures and raise_on_failure:
            raise GradcheckFailure(
                f"module gradcheck failed for {type(module).__name__}:\n"
                + report.summary())
        return report
    finally:
        module.train(was_training)
        for param, dt in original_dtypes:
            if param.data.dtype != dt:
                param.data = param.data.astype(dt)
