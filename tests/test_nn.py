"""Tests for the tiny neural-network library (layers, MLP, optimisers)."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Linear,
    Parameter,
    ReLU,
    Sigmoid,
    TruncatedExp,
)
from repro.nn.parameter import flat_pair_view
from repro.utils.seeding import new_rng
from repro.utils.workspace import WorkspaceArena

from gradcheck import numerical_gradient


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert np.all(p.grad == 0.0)

    def test_accumulate_and_zero(self):
        p = Parameter(np.zeros((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        np.testing.assert_allclose(p.grad, 2.0)
        p.zero_grad()
        np.testing.assert_allclose(p.grad, 0.0)

    def test_shape_mismatch_raises(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.zeros(3))

    def test_flat_pair_view_contract(self):
        pairs = np.arange(8, dtype=np.float32).reshape(4, 2)
        view = flat_pair_view(pairs)
        assert view.shape == (4,)
        # Writing through the view must alias the original rows.
        view[1] = view[0]
        np.testing.assert_array_equal(pairs[1], pairs[0])
        # Shapes/dtypes/layouts outside the contract are declined, not mangled.
        assert flat_pair_view(np.zeros((4, 3), dtype=np.float32)) is None
        assert flat_pair_view(np.zeros((4, 2), dtype=np.float64)) is None
        strided = np.zeros((8, 2), dtype=np.float32)[::2]
        assert strided.shape == (4, 2) and not strided.flags.c_contiguous
        assert flat_pair_view(strided) is None


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 6, rng=new_rng(0))
        out = layer.forward(np.random.default_rng(0).normal(size=(5, 4)))
        assert out.shape == (5, 6)

    def test_invalid_input_shape_raises(self):
        layer = Linear(4, 6, rng=new_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((5, 3)))

    def test_backward_before_forward_raises(self):
        layer = Linear(2, 2, rng=new_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_weight_gradient_matches_numerical(self):
        rng = new_rng(3)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        target = rng.normal(size=(4, 2)).astype(np.float32)

        def loss_for_weights(w):
            saved = layer.weight.data.copy()
            layer.weight.data = w.astype(np.float32)
            out = layer.forward(x)
            layer.weight.data = saved
            return float(np.sum((out - target) ** 2))

        out = layer.forward(x)
        layer.backward(2.0 * (out - target))
        numeric = numerical_gradient(loss_for_weights, layer.weight.data.astype(np.float64))
        np.testing.assert_allclose(layer.weight.grad, numeric, rtol=1e-2, atol=1e-2)

    def test_input_gradient_matches_numerical(self):
        rng = new_rng(4)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))

        def loss_for_input(xi):
            return float(np.sum(layer.forward(xi) ** 2))

        out = layer.forward(x)
        grad_in = layer.backward(2.0 * out)
        numeric = numerical_gradient(loss_for_input, x.copy())
        np.testing.assert_allclose(grad_in, numeric, rtol=1e-2, atol=1e-2)


class TestActivations:
    @pytest.mark.parametrize("activation_cls", [ReLU, Sigmoid, TruncatedExp])
    def test_gradient_matches_numerical(self, activation_cls):
        act = activation_cls()
        rng = new_rng(5)
        x = rng.normal(size=(3, 4))

        def loss(xi):
            fresh = activation_cls()
            return float(np.sum(fresh.forward(xi) ** 2))

        out = act.forward(x)
        grad = act.backward(2.0 * out)
        numeric = numerical_gradient(loss, x.copy())
        np.testing.assert_allclose(grad, numeric, rtol=1e-2, atol=1e-2)

    def test_relu_zeroes_negative(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])

    def test_relu_in_place_matches_separate_product(self):
        # Negative inputs and -0.0 give -0.0 (x * False), as the product
        # written to a separate buffer does.
        x = np.array([[-1.5, -0.0, 0.0, 2.0, 1e-45, -1e-45, 3e38, -3e38]],
                     dtype=np.float32)
        grad = np.array([[1.0, -2.0, -0.0, 0.0, -3.0, 4.0, 5.0, -6.0]],
                        dtype=np.float32)
        mask = x > 0
        expected_out = np.empty_like(x)
        np.multiply(x, mask, out=expected_out)
        expected_grad = np.empty_like(grad)
        np.multiply(grad, mask, out=expected_grad)
        relu = ReLU()
        buf = x.copy()
        out = relu.forward(buf)
        assert out is buf
        np.testing.assert_array_equal(out.view(np.uint32),
                                      expected_out.view(np.uint32))
        np.testing.assert_array_equal(relu.backward(grad).view(np.uint32),
                                      expected_grad.view(np.uint32))

    def test_hidden_relu_returns_its_linear_output(self):
        mlp = MLP(4, [8], 2, rng=new_rng(0))
        mlp.set_arena(WorkspaceArena())
        linear, relu = mlp.layers[0], mlp.layers[1]
        assert isinstance(relu, ReLU)
        x = new_rng(1).normal(size=(5, 4)).astype(np.float32)
        hidden = linear.forward(x)
        assert relu.forward(hidden) is hidden

    def test_sigmoid_range(self):
        out = Sigmoid().forward(np.array([[-100.0, 0.0, 100.0]]))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_truncated_exp_clamps(self):
        act = TruncatedExp(clamp=5.0)
        out = act.forward(np.array([[100.0]]))
        assert np.isclose(out[0, 0], np.exp(5.0), rtol=1e-5)


class TestMLP:
    def test_output_shape_and_param_count(self):
        mlp = MLP(4, [8, 8], 2, rng=new_rng(0))
        out = mlp.forward(np.zeros((3, 4), dtype=np.float32))
        assert out.shape == (3, 2)
        expected_params = (4 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)
        assert sum(p.size for p in mlp.parameters()) == expected_params

    def test_backward_accumulates_all_parameter_grads(self):
        mlp = MLP(3, [5], 2, rng=new_rng(1))
        x = new_rng(2).normal(size=(6, 3))
        out = mlp.forward(x)
        mlp.backward(np.ones_like(out))
        assert all(np.any(p.grad != 0.0) for p in mlp.parameters())

    def test_zero_grad(self):
        mlp = MLP(3, [5], 2, rng=new_rng(1))
        out = mlp.forward(np.ones((2, 3), dtype=np.float32))
        mlp.backward(np.ones_like(out))
        mlp.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in mlp.parameters())

    def test_gradient_matches_numerical_on_first_layer(self):
        mlp = MLP(2, [4], 1, rng=new_rng(7))
        x = new_rng(8).normal(size=(3, 2)).astype(np.float32)
        first_weight = mlp.parameters()[0]

        def loss_for(w):
            saved = first_weight.data.copy()
            first_weight.data = w.astype(np.float32)
            out = mlp.forward(x)
            first_weight.data = saved
            return float(np.sum(out ** 2))

        out = mlp.forward(x)
        mlp.zero_grad()
        mlp.backward(2.0 * out)
        numeric = numerical_gradient(loss_for, first_weight.data.astype(np.float64))
        np.testing.assert_allclose(first_weight.grad, numeric, rtol=2e-2, atol=2e-2)

    def test_mlp_input_gradient(self):
        rng = new_rng(6)
        mlp = MLP(in_features=3, hidden_features=[8], out_features=2, rng=rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)

        def loss(xi):
            return float(np.sum(mlp.forward(xi) ** 2))

        out = mlp.forward(x)
        grad_in = mlp.backward(2.0 * out)
        numeric = numerical_gradient(loss, x.astype(np.float64).copy())
        np.testing.assert_allclose(grad_in, numeric, rtol=1e-2, atol=1e-2)


class TestOptimizers:
    def _quadratic_problem(self):
        param = Parameter(np.array([5.0, -3.0]))
        return param

    def test_adam_reduces_quadratic(self):
        param = self._quadratic_problem()
        opt = Adam([param], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            param.accumulate_grad(2.0 * param.data)
            opt.step()
        assert np.linalg.norm(param.data) < 1e-2

    def test_adam_step_count(self):
        param = Parameter(np.zeros(2))
        opt = Adam([param], lr=0.1)
        opt.step()
        opt.step()
        assert opt.step_count == 2

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0},
        {"lr": -1.0},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"betas": (1.0, 0.99)},
        {"betas": (0.9, 1.0)},
        {"betas": (-0.1, 0.99)},
        {"betas": (float("nan"), 0.99)},
        {"eps": 0.0},
        {"eps": float("nan")},
        {"eps": float("inf")},
    ], ids=lambda kwargs: ",".join(
        f"{k}={v}" for k, v in kwargs.items()).replace(" ", ""))
    def test_invalid_lr_raises(self, kwargs):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], **kwargs)
