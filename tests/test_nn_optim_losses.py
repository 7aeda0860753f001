"""Tests for optimizers, losses and serialization."""

import os

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Parameter,
    SGD,
    clip_grad_norm,
    huber_loss,
    load_modules,
    mse_loss,
    save_modules,
)


class TestLosses:
    def test_mse_value_and_gradient(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(2.5)
        assert np.allclose(grad, [[1.0, 2.0]])  # 2*(p-t)/n

    def test_mse_gradient_numeric(self, rng):
        p = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        _, grad = mse_loss(p, t)
        eps = 1e-6
        pp = p.copy()
        pp[1, 2] += eps
        pm = p.copy()
        pm[1, 2] -= eps
        num = (mse_loss(pp, t)[0] - mse_loss(pm, t)[0]) / (2 * eps)
        assert grad[1, 2] == pytest.approx(num, rel=1e-4)

    def test_huber_quadratic_inside_linear_outside(self):
        t = np.zeros((1, 2))
        _, g_small = huber_loss(np.array([[0.1, 0.0]]), t, delta=1.0)
        _, g_big = huber_loss(np.array([[10.0, 0.0]]), t, delta=1.0)
        assert g_small[0, 0] == pytest.approx(0.1 / 2)
        assert g_big[0, 0] == pytest.approx(1.0 / 2)  # clipped slope

    def test_huber_validation(self):
        with pytest.raises(ValueError):
            huber_loss(np.zeros((1, 1)), np.zeros((1, 1)), delta=0.0)


class TestOptimizers:
    def _quadratic_problem(self):
        """min ||w - target||^2 over a single parameter."""
        target = np.array([1.0, -2.0, 3.0])
        p = Parameter(np.zeros(3))

        def grad_step():
            p.grad[...] = 2 * (p.data - target)

        return p, target, grad_step

    def test_sgd_converges(self):
        p, target, step = self._quadratic_problem()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            step()
            opt.step()
        assert np.allclose(p.data, target, atol=1e-4)

    def test_sgd_momentum_converges(self):
        p, target, step = self._quadratic_problem()
        opt = SGD([p], lr=0.05, momentum=0.9)
        for _ in range(200):
            step()
            opt.step()
        assert np.allclose(p.data, target, atol=1e-3)

    def test_adam_converges(self):
        p, target, step = self._quadratic_problem()
        opt = Adam([p], lr=0.1)
        for _ in range(400):
            step()
            opt.step()
        assert np.allclose(p.data, target, atol=1e-3)

    def test_adam_weight_decay_shrinks_solution(self):
        p1, target, step1 = self._quadratic_problem()
        opt = Adam([p1], lr=0.1, weight_decay=1.0)
        for _ in range(400):
            step1()
            opt.step()
        assert np.all(np.abs(p1.data) < np.abs(target))

    def test_zero_grad(self):
        p, _, step = self._quadratic_problem()
        opt = Adam([p])
        step()
        opt.zero_grad()
        assert np.allclose(p.grad, 0.0)

    def test_lr_validation(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, betas=(1.0, 0.9))

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad[...] = np.array([3.0, 4.0, 0.0, 0.0])  # norm 5
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_noop_below_max(self):
        p = Parameter(np.zeros(2))
        p.grad[...] = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=10.0)
        assert np.allclose(p.grad, [0.3, 0.4])


class TestSerialization:
    def test_module_roundtrip(self, rng, tmp_path):
        net = MLP([3, 5, 2], rng)
        path = str(tmp_path / "net.npz")
        save_modules({"net": net}, path)
        other = MLP([3, 5, 2], rng)
        load_modules({"net": other}, path)
        x = rng.standard_normal((2, 3))
        assert np.allclose(net(x), other(x))

    def test_missing_file_raises(self, rng, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_modules({"net": MLP([2, 2], rng)}, str(tmp_path / "nope.npz"))

    def test_multi_module_roundtrip(self, rng, tmp_path):
        a, b = MLP([2, 3, 1], rng), MLP([4, 2], rng)
        path = str(tmp_path / "both.npz")
        save_modules({"actor": a, "critic": b}, path)
        a2, b2 = MLP([2, 3, 1], rng), MLP([4, 2], rng)
        load_modules({"actor": a2, "critic": b2}, path)
        assert np.allclose(a.get_flat(), a2.get_flat())
        assert np.allclose(b.get_flat(), b2.get_flat())

    def test_multi_module_missing_name(self, rng, tmp_path):
        a = MLP([2, 2], rng)
        path = str(tmp_path / "one.npz")
        save_modules({"actor": a}, path)
        with pytest.raises(KeyError):
            load_modules({"critic": MLP([2, 2], rng)}, path)
