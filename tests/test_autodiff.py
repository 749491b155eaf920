"""Finite-difference checks for every tape primitive."""

import numpy as np
import pytest

import capeskit.autodiff as ad
from capeskit.autodiff import Tensor


def numeric_grad(fn, x, step=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, shape, seed=0, atol=1e-7):
    """build(tensor) -> scalar Tensor; compare tape grad vs central FD."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()

    def value(arr):
        return float(build(Tensor(arr)).data)

    np.testing.assert_allclose(t.grad, numeric_grad(value, x.copy()), atol=atol)


class TestPrimitives:
    def test_add_broadcast(self):
        b = Tensor(np.arange(3.0))
        check_op(lambda t: ad.sum_all(ad.mul(ad.add(t, b), ad.add(t, b))), (4, 3))

    def test_sub_and_scale(self):
        check_op(lambda t: ad.sum_all(ad.mul(ad.scale(ad.sub(t, Tensor(np.ones((2, 3)))), 2.5),
                                              t)), (2, 3))

    def test_mul_broadcast_grad_to_small_side(self):
        rng = np.random.default_rng(1)
        big = rng.standard_normal((4, 3))
        small = Tensor(rng.standard_normal(3), requires_grad=True)
        out = ad.sum_all(ad.mul(Tensor(big), ad.mul(small, small)))
        out.backward()
        np.testing.assert_allclose(small.grad, big.sum(axis=0) * 2 * small.data, atol=1e-12)

    def test_matmul_2d(self):
        w = Tensor(np.random.default_rng(2).standard_normal((3, 5)))
        check_op(lambda t: ad.sum_all(ad.mul(ad.matmul(t, w), ad.matmul(t, w))), (4, 3))

    def test_matmul_batched(self):
        w = Tensor(np.random.default_rng(3).standard_normal((2, 4, 3)))
        check_op(lambda t: ad.sum_all(ad.mul(ad.matmul(w, t), ad.matmul(w, t))), (2, 3, 5))

    def test_matmul_broadcast_weight_grad(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 2, 3))
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = ad.sum_all(ad.matmul(Tensor(x), w))
        out.backward()
        expected = np.einsum("bij,bik->jk", x, np.ones((6, 2, 4)))
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)

    def test_reshape_transpose(self):
        check_op(lambda t: ad.sum_all(ad.mul(
            ad.transpose(ad.reshape(t, (2, 3, 4)), (2, 0, 1)),
            ad.transpose(ad.reshape(t, (2, 3, 4)), (2, 0, 1)))), (6, 4))

    def test_take_rows_scatter(self):
        idx = np.array([2, 0, 2, 1])
        check_op(lambda t: ad.sum_all(ad.mul(ad.take_rows(t, idx), ad.take_rows(t, idx))), (3, 2))

    def test_sum_last_and_mean_last(self):
        check_op(lambda t: ad.sum_all(ad.mul(ad.sum_last(t), ad.mean_last(t))), (3, 4))

    def test_power(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.5, 2.0, (3, 3))
        t = Tensor(x.copy(), requires_grad=True)
        ad.sum_all(ad.power(t, -0.5)).backward()

        def value(arr):
            return float(np.sum(np.power(arr, -0.5)))

        np.testing.assert_allclose(t.grad, numeric_grad(value, x.copy()), atol=1e-7)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        y = ad.softmax_last(Tensor(rng.standard_normal((5, 4, 6)) * 3))
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_grad(self):
        w = Tensor(np.random.default_rng(8).standard_normal((4, 5)))
        check_op(lambda t: ad.sum_all(ad.mul(ad.softmax_last(t), w)), (4, 5))

    def test_softmax_handles_minus_inf(self):
        x = np.array([[1.0, -np.inf, 2.0]])
        y = ad.softmax_last(Tensor(x))
        assert y.data[0, 1] == 0.0
        np.testing.assert_allclose(y.data.sum(), 1.0, atol=1e-15)

    def test_gelu_grad(self):
        check_op(lambda t: ad.sum_all(ad.gelu(t)), (4, 4))

    def test_layer_norm_grad(self):
        g = Tensor(np.random.default_rng(9).uniform(0.5, 1.5, 6), requires_grad=False)
        b = Tensor(np.random.default_rng(10).standard_normal(6))
        check_op(lambda t: ad.sum_all(ad.mul(ad.layer_norm(t, g, b),
                                              ad.layer_norm(t, g, b))), (5, 6), atol=1e-6)

    def test_layer_norm_param_grads(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 6))
        g = rng.uniform(0.5, 1.5, 6)
        b = rng.standard_normal(6)
        gt = Tensor(g.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        ad.sum_all(ad.mul(ad.layer_norm(Tensor(x), gt, bt),
                          ad.layer_norm(Tensor(x), gt, bt))).backward()

        def value_g(arr):
            y = ad.layer_norm(Tensor(x), Tensor(arr), Tensor(b)).data
            return float(np.sum(y * y))

        def value_b(arr):
            y = ad.layer_norm(Tensor(x), Tensor(g), Tensor(arr)).data
            return float(np.sum(y * y))

        np.testing.assert_allclose(gt.grad, numeric_grad(value_g, g.copy()), atol=1e-6)
        np.testing.assert_allclose(bt.grad, numeric_grad(value_b, b.copy()), atol=1e-6)


class TestEngine:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2
        ad.sum_all(y).backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ad.add(x, x).backward()

    def test_no_tape_without_requires_grad(self):
        x = Tensor(np.ones((2, 2)))
        y = ad.mul(ad.add(x, x), x)
        assert y._parents == ()

    def test_linear_model_grad_near_exact(self):
        # exactly linear path: tape vs FD agree to ~1e-9
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 2))
        wt = Tensor(w.copy(), requires_grad=True)
        out = ad.matmul(Tensor(x), wt)
        ad.sum_all(ad.mul(out, out)).backward()

        def value(arr):
            y = x @ arr
            return float(np.sum(y * y))

        num = numeric_grad(value, w.copy(), step=1e-5)
        rel = np.abs(wt.grad - num) / np.maximum(1.0, np.abs(num))
        assert rel.max() < 1e-9
