"""Gradient-descent optimizers.

Each optimizer holds a list of :class:`~repro.nn.module.Parameter` objects
and updates them in place from their ``.grad`` fields.  Updates are plain
numpy math (no graph is recorded).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam", "RMSProp", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm):
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float((grad ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


class Optimizer:
    """Base optimizer; subclasses implement :meth:`_update`.

    Optimizers are checkpointable: :meth:`state_dict` returns a nested
    tree of scalars and per-parameter slot arrays (aligned with the
    parameter list order) and :meth:`load_state_dict` restores it, so a
    resumed run continues with identical moments (see
    ``repro.train.engine``).
    """

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self):
        """Clear gradients on every managed parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self):
        """Apply one update using the accumulated gradients."""
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            self._update(index, param)

    def _update(self, index, param):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return the optimizer's mutable state as a nested tree.

        Contains ``lr`` plus whatever slot state the subclass keeps
        (moments, velocities); suitable for
        :func:`repro.nn.serialization.save_state`.
        """
        state = {"lr": float(self.lr)}
        state.update(self._slot_state())
        return state

    def load_state_dict(self, state):
        """Restore state produced by :meth:`state_dict`.

        Slot arrays are validated against the current parameter shapes.
        """
        self.lr = float(state["lr"])
        self._load_slot_state(state)

    def _slot_state(self):
        return {}

    def _load_slot_state(self, state):
        pass

    def _checked_slots(self, arrays, name):
        """Coerce a list of slot arrays, validating length and shapes."""
        if len(arrays) != len(self.parameters):
            raise ValueError(
                f"optimizer state {name!r} has {len(arrays)} slots for "
                f"{len(self.parameters)} parameters")
        out = []
        for array, param in zip(arrays, self.parameters):
            # Moment buffers follow their parameter's dtype (the policy
            # dtype the model was built under), not a hard-coded float64.
            array = np.asarray(array, dtype=param.data.dtype)
            if array.shape != param.data.shape:
                raise ValueError(f"slot {name!r} shape {array.shape} does not "
                                 f"match parameter shape {param.data.shape}")
            out.append(array.copy())
        return out


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [None] * len(self.parameters)

    def _update(self, index, param):
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            if self._velocity[index] is None:
                self._velocity[index] = np.zeros_like(param.data)
            vel = self._velocity[index]
            vel *= self.momentum
            vel -= self.lr * grad
            param.data += vel
        else:
            param.data -= self.lr * grad

    def _slot_state(self):
        # Lazily-created velocities serialize as zeros (the same thing).
        return {"velocity": [np.zeros_like(p.data) if v is None else v
                             for v, p in zip(self._velocity,
                                             self.parameters)]}

    def _load_slot_state(self, state):
        self._velocity = self._checked_slots(state["velocity"], "velocity")


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters, lr=0.001, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        super().step()

    def _update(self, index, param):
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        m, v = self._m[index], self._v[index]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        m_hat = m / (1.0 - self.beta1 ** self._step_count)
        v_hat = v / (1.0 - self.beta2 ** self._step_count)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _slot_state(self):
        return {"step_count": int(self._step_count),
                "m": list(self._m), "v": list(self._v)}

    def _load_slot_state(self, state):
        self._step_count = int(state["step_count"])
        self._m = self._checked_slots(state["m"], "m")
        self._v = self._checked_slots(state["v"], "v")


class RMSProp(Optimizer):
    """RMSProp with exponentially decayed squared-gradient average."""

    def __init__(self, parameters, lr=0.001, rho=0.9, eps=1e-8):
        super().__init__(parameters, lr)
        self.rho = rho
        self.eps = eps
        self._sq = [np.zeros_like(p.data) for p in self.parameters]

    def _update(self, index, param):
        sq = self._sq[index]
        sq *= self.rho
        sq += (1.0 - self.rho) * param.grad ** 2
        param.data -= self.lr * param.grad / (np.sqrt(sq) + self.eps)

    def _slot_state(self):
        return {"sq": list(self._sq)}

    def _load_slot_state(self, state):
        self._sq = self._checked_slots(state["sq"], "sq")
