"""Tests for NN layers and network containers (gradients vs finite diff)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    MLP,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
    TwoHeadMLP,
    mse_loss,
    numerical_gradient,
)


def _grad_check(module, x, target, tol=1e-6):
    pred = module.forward(x)
    _, grad = mse_loss(pred, target)
    module.zero_grad()
    module.backward(grad)
    analytic = np.concatenate([p.grad.ravel() for p in module.parameters()])
    numeric = numerical_gradient(module, x, lambda y: mse_loss(y, target)[0])
    assert np.abs(analytic - numeric).max() < tol


class TestLinear:
    def test_forward_shape_and_affine(self, rng):
        lin = Linear(3, 2, rng)
        x = rng.standard_normal((5, 3))
        y = lin(x)
        assert y.shape == (5, 2)
        assert np.allclose(y, x @ lin.weight.data.T + lin.bias.data)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng).backward(np.ones((1, 2)))

    def test_gradient_accumulates_across_calls(self, rng):
        lin = Linear(2, 2, rng)
        x = rng.standard_normal((3, 2))
        g = np.ones((3, 2))
        lin.forward(x)
        lin.backward(g)
        first = lin.weight.grad.copy()
        lin.forward(x)
        lin.backward(g)
        assert np.allclose(lin.weight.grad, 2 * first)

    def test_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 2, rng)


class TestActivations:
    @pytest.mark.parametrize("act_cls", [ReLU, Sigmoid, Tanh])
    def test_gradient_matches_numeric(self, act_cls, rng):
        act = act_cls()
        x = rng.standard_normal((4, 3)) + 0.1  # avoid ReLU kink at 0
        y = act.forward(x)
        g_out = rng.standard_normal(y.shape)
        g_in = act.backward(g_out)
        eps = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp = x.copy()
                xp[i, j] += eps
                xm = x.copy()
                xm[i, j] -= eps
                num = (act_cls().forward(xp) * g_out).sum()
                num -= (act_cls().forward(xm) * g_out).sum()
                num /= 2 * eps
                assert g_in[i, j] == pytest.approx(num, abs=1e-4)

    def test_sigmoid_range_and_stability(self):
        s = Sigmoid()
        y = s.forward(np.array([[-1000.0, 0.0, 1000.0]]))
        assert np.all((y >= 0) & (y <= 1))
        assert y[0, 1] == pytest.approx(0.5)
        assert np.isfinite(y).all()

    def test_relu_zeroes_negatives(self):
        r = ReLU()
        y = r.forward(np.array([[-1.0, 2.0]]))
        assert np.allclose(y, [[0.0, 2.0]])


class TestMLP:
    def test_gradcheck_small_net(self, rng):
        net = MLP([4, 8, 3], rng)
        x = rng.standard_normal((6, 4))
        t = rng.standard_normal((6, 3))
        _grad_check(net, x, t)

    def test_gradcheck_sigmoid_output(self, rng):
        net = MLP([3, 6, 2], rng, output_activation="sigmoid")
        x = rng.standard_normal((4, 3))
        t = rng.random((4, 2))
        _grad_check(net, x, t)

    def test_num_parameters(self, rng):
        net = MLP([4, 8, 3], rng)
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3

    def test_flat_roundtrip(self, rng):
        net = MLP([3, 5, 2], rng)
        flat = net.get_flat()
        net2 = MLP([3, 5, 2], rng)
        net2.set_flat(flat)
        x = rng.standard_normal((2, 3))
        assert np.allclose(net(x), net2(x))

    def test_set_flat_size_validation(self, rng):
        net = MLP([3, 5, 2], rng)
        with pytest.raises(ValueError):
            net.set_flat(np.zeros(3))
        with pytest.raises(ValueError):
            net.set_flat(np.zeros(net.num_parameters() + 1))

    def test_copy_from(self, rng):
        a, b = MLP([3, 4, 1], rng), MLP([3, 4, 1], rng)
        b.copy_from(a)
        assert np.allclose(a.get_flat(), b.get_flat())

    def test_soft_update_interpolates(self, rng):
        a, b = MLP([2, 3, 1], rng), MLP([2, 3, 1], rng)
        fa, fb = a.get_flat(), b.get_flat()
        b.soft_update_from(a, tau=0.25)
        assert np.allclose(b.get_flat(), 0.25 * fa + 0.75 * fb)

    def test_soft_update_tau_validation(self, rng):
        a, b = MLP([2, 3, 1], rng), MLP([2, 3, 1], rng)
        with pytest.raises(ValueError):
            b.soft_update_from(a, tau=1.5)

    def test_state_dict_roundtrip(self, rng):
        a = MLP([2, 4, 2], rng)
        b = MLP([2, 4, 2], rng)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.get_flat(), b.get_flat())

    def test_load_state_dict_shape_mismatch(self, rng):
        a = MLP([2, 4, 2], rng)
        state = a.state_dict()
        state["p0"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_needs_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)


class TestTwoHeadMLP:
    def test_output_shape_and_range(self, rng):
        net = TwoHeadMLP(8, [32], [24, 16], rng, output_activation="sigmoid")
        y = net(rng.standard_normal((7, 8)))
        assert y.shape == (7, 2)
        assert np.all((y >= 0) & (y <= 1))

    def test_gradcheck(self, rng):
        # tanh hidden keeps the loss smooth everywhere so finite differences
        # are exact; ReLU's backward is verified in TestActivations.
        net = TwoHeadMLP(4, [6], [5, 4], rng, hidden_activation="tanh")
        x = rng.standard_normal((3, 4))
        t = rng.random((3, 2))
        _grad_check(net, x, t)

    def test_heads_are_independent_after_trunk(self, rng):
        net = TwoHeadMLP(4, [6], [5], rng)
        # Zeroing head B's parameters must not change head A's output.
        x = rng.standard_normal((2, 4))
        before = net(x)[:, 0].copy()
        for p in net.head_b.parameters():
            p.data[...] = 0.0
        after = net(x)[:, 0]
        assert np.allclose(before, after)

    def test_parameter_count_matches_structure(self, rng):
        net = TwoHeadMLP(8, [32], [24, 16], rng)
        trunk = 8 * 32 + 32
        head = 32 * 24 + 24 + 24 * 16 + 16 + 16 * 1 + 1
        assert net.num_parameters() == trunk + 2 * head


@given(
    batch=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_property_mlp_gradients_match_numeric(batch, seed):
    rng = np.random.default_rng(seed)
    net = MLP([3, 5, 2], rng, output_activation="tanh")
    x = rng.standard_normal((batch, 3))
    t = rng.standard_normal((batch, 2))
    pred = net.forward(x)
    _, grad = mse_loss(pred, t)
    net.zero_grad()
    net.backward(grad)
    analytic = np.concatenate([p.grad.ravel() for p in net.parameters()])
    numeric = numerical_gradient(net, x, lambda y: mse_loss(y, t)[0])
    assert np.abs(analytic - numeric).max() < 1e-5
