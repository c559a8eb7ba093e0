"""Tests of ConCare, including the vectorized per-feature GRU equivalence.

``PerFeatureGRU`` runs :func:`repro.nn.ops.perfeature_gru_scan`, one
graph node with a hand-derived backward.  The composite op-by-op
recurrence it replaced lives on here as the oracle: the scan must match
it in the forward and in every gradient (input, initial state and all
parameters) to 1e-10 under float64 and 1e-4 under float32.
"""

import numpy as np
import pytest

from repro import nn
from repro.baselines import ConCare, PerFeatureGRU
from repro.data import NUM_FEATURES
from repro.nn import ops
from repro.nn.dtype import autocast
from repro.nn.layers import GRUCell

_TOLS = {np.float64: 1e-10, np.float32: 1e-4}


def _recur_step(h, gates_x, w_hh):
    """Advance the stacked recurrence one step given the already-
    projected input gates ``(C, B, 3H)``."""
    gates_h = ops.matmul(h, w_hh)
    zx, rx, nx = ops.split(gates_x, 3, axis=-1)
    zh, rh, nh = ops.split(gates_h, 3, axis=-1)
    update = ops.sigmoid(zx + zh)
    reset = ops.sigmoid(rx + rh)
    candidate = ops.tanh(nx + reset * nh)
    return update * h + (1.0 - update) * candidate


def _composite_scan(x, h0, w_ih, w_hh, bias):
    """Op-by-op oracle for ``ops.perfeature_gru_scan``."""
    batch, steps, channels = x.shape
    gate_width = w_hh.shape[-1]
    x_all = x.transpose((2, 1, 0)).reshape(channels, steps, batch, 1)
    gates_x = ops.matmul(x_all, w_ih.reshape(channels, 1, 1, gate_width)) \
        + bias.reshape(channels, 1, 1, gate_width)
    h = h0
    for t in range(steps):
        h = _recur_step(h, gates_x[:, t], w_hh)
    return h


def _run(scan, arrays):
    """Forward + backward of sum(out^2); returns (out, input gradients)."""
    tensors = [nn.Tensor(a, requires_grad=True) for a in arrays]
    out = scan(*tensors)
    (out * out).sum().backward()
    return out.data, [t.grad for t in tensors]


class TestPerFeatureGRU:
    def test_output_shape(self, rng):
        encoder = PerFeatureGRU(6, 4, np.random.default_rng(0))
        out = encoder(nn.Tensor(rng.normal(size=(3, 5, 6))))
        assert out.shape == (3, 6, 4)

    def test_matches_independent_gru_cells(self, rng):
        """The stacked recurrence must equal C separate single-input GRUs."""
        num_features, hidden = 3, 4
        encoder = PerFeatureGRU(num_features, hidden,
                                np.random.default_rng(1))
        x = rng.normal(size=(2, 6, num_features))
        fast = encoder(nn.Tensor(x)).data

        for c in range(num_features):
            cell = GRUCell(1, hidden, np.random.default_rng(0))
            cell.w_ih.data[...] = encoder.w_ih.data[c]
            cell.w_hh.data[...] = encoder.w_hh.data[c]
            cell.b_ih.data[...] = encoder.bias.data[c]
            cell.b_hh.data[...] = 0.0
            h = nn.Tensor(np.zeros((2, hidden)))
            with nn.no_grad():
                for t in range(6):
                    h = cell(nn.Tensor(x[:, t, c:c + 1]), h)
            assert np.allclose(fast[:, c, :], h.data, atol=1e-10), \
                f"feature {c} diverges"

    def test_features_processed_independently(self, rng):
        """Perturbing feature 0's series must not change feature 1's summary."""
        encoder = PerFeatureGRU(2, 3, np.random.default_rng(2))
        x = rng.normal(size=(1, 5, 2))
        base = encoder(nn.Tensor(x)).data
        x_perturbed = x.copy()
        x_perturbed[:, :, 0] += 10.0
        perturbed = encoder(nn.Tensor(x_perturbed)).data
        assert np.allclose(base[:, 1, :], perturbed[:, 1, :])
        assert not np.allclose(base[:, 0, :], perturbed[:, 0, :])

    def test_gradients_flow(self, rng):
        encoder = PerFeatureGRU(3, 4, np.random.default_rng(3))
        out = encoder(nn.Tensor(rng.normal(size=(2, 4, 3))))
        (out * out).sum().backward()
        assert all(p.grad is not None for p in encoder.parameters())


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
class TestScanMatchesCompositeOracle:
    CHANNELS, HIDDEN = 4, 3

    def _arrays(self, batch, steps, seed, contiguous=True):
        rng = np.random.default_rng(seed)
        c, h = self.CHANNELS, self.HIDDEN
        if contiguous:
            x = rng.normal(size=(batch, steps, c))
        else:
            x = rng.normal(size=(c, steps, batch)).transpose(2, 1, 0)
        return (x, rng.normal(size=(c, batch, h)),
                rng.normal(size=(c, 1, 3 * h)) * 0.5,
                rng.normal(size=(c, h, 3 * h)) * 0.5,
                rng.normal(size=(c, 3 * h)) * 0.1)

    def _assert_agree(self, dtype, arrays):
        with autocast(dtype):
            out_scan, grads_scan = _run(ops.perfeature_gru_scan, arrays)
            out_ref, grads_ref = _run(_composite_scan, arrays)
        tol = _TOLS[dtype]
        assert out_scan.dtype == dtype
        assert np.abs(out_scan - out_ref).max() < tol
        names = ["x", "h0", "w_ih", "w_hh", "bias"]
        for name, g_scan, g_ref in zip(names, grads_scan, grads_ref):
            assert g_scan.dtype == dtype, name
            assert np.abs(g_scan - g_ref).max() < tol, name

    @pytest.mark.parametrize("batch,steps", [(3, 6), (1, 6), (2, 1)],
                             ids=["batch3", "batch1", "T1"])
    def test_forward_and_gradients(self, dtype, batch, steps):
        self._assert_agree(dtype, self._arrays(batch, steps, batch + steps))

    def test_non_contiguous_input(self, dtype):
        arrays = self._arrays(2, 5, 11, contiguous=False)
        assert not arrays[0].flags["C_CONTIGUOUS"]
        self._assert_agree(dtype, arrays)


class TestConCare:
    def test_logits_shape(self, tiny_dataset):
        model = ConCare(NUM_FEATURES, np.random.default_rng(0),
                        feature_hidden=4, num_heads=2)
        batch = tiny_dataset.subset(np.arange(3))
        assert model.forward_batch(batch).shape == (3,)

    def test_largest_baseline(self):
        """Table III: ConCare has the most parameters among baselines."""
        from repro.baselines import BASELINE_NAMES, build_model
        counts = {}
        for name in BASELINE_NAMES:
            model = build_model(name, NUM_FEATURES, np.random.default_rng(0))
            counts[name] = model.num_parameters()
        assert max(counts, key=counts.get) == "ConCare"
