import numpy as np
import pytest

from svgnet import tensor as T
from svgnet.gradcheck import grad_check
from svgnet.tensor import (DisconnectedLossError, GradientTape, Parameter, ShapeMismatchError,
                           Tensor)


class TestForwardOps:
    def test_softmax_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(0, 5, (4, 7)))
        out = T.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 3, (5, 6))
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_layer_norm_hand_computed(self):
        out = T.layer_norm(Tensor([1.0, 2.0, 3.0]), eps=1e-12)
        np.testing.assert_allclose(out.data, [-np.sqrt(1.5), 0.0, np.sqrt(1.5)], atol=1e-5)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(3, 7, (6, 32)))
        out = T.layer_norm(x, axis=-1, eps=1e-5).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, np.array([[0, 3], [1, 1]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 1], [9, 10, 11])

    def test_finite_outputs(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(0, 50, (8, 16)))
        for out in (T.softmax(x), T.layer_norm(x), T.relu(x)):
            assert np.isfinite(out.data).all()


class TestAttention:
    def test_single_unmasked_key_returns_value(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.normal(size=(1, 1, 2, 4)))
        k = Tensor(rng.normal(size=(1, 1, 3, 4)))
        v = Tensor(rng.normal(size=(1, 1, 3, 4)))
        mask = np.array([0.0, 1.0, 0.0])[None, None, None, :]
        out = T.scaled_dot_product_attention(q, k, v, mask=mask)
        np.testing.assert_allclose(out.data[0, 0, 0], v.data[0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(out.data[0, 0, 1], v.data[0, 0, 1], atol=1e-12)

    def test_all_ones_mask_matches_no_mask(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(2, 1, 3, 4)))
        k = Tensor(rng.normal(size=(2, 1, 3, 4)))
        v = Tensor(rng.normal(size=(2, 1, 3, 4)))
        ones = np.ones((2, 1, 1, 3))
        a = T.scaled_dot_product_attention(q, k, v, mask=ones).data
        b = T.scaled_dot_product_attention(q, k, v).data
        assert (a == b).all()

    def test_all_masked_row_is_finite(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(1, 1, 2, 4)))
        k = Tensor(rng.normal(size=(1, 1, 2, 4)))
        v = Tensor(rng.normal(size=(1, 1, 2, 4)))
        mask = np.array([[0.0, 0.0], [1.0, 0.0]])[None, None]  # row 0 sees no key
        out = T.scaled_dot_product_attention(q, k, v, mask=mask).data
        assert np.isfinite(out).all()
        assert (out[0, 0, 1] == v.data[0, 0, 0]).all()

    def test_masked_values_cannot_leak(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.normal(size=(1, 1, 2, 4)))
        k = rng.normal(size=(1, 1, 3, 4))
        v = rng.normal(size=(1, 1, 3, 4))
        mask = np.array([1.0, 1.0, 0.0])[None, None, None, :]
        base = T.scaled_dot_product_attention(q, Tensor(k), Tensor(v), mask=mask).data
        k2, v2 = k.copy(), v.copy()
        k2[..., 2, :] = 999.0
        v2[..., 2, :] = -999.0
        mut = T.scaled_dot_product_attention(q, Tensor(k2), Tensor(v2), mask=mask).data
        assert (base == mut).all()


class TestBackward:
    def test_weight_gradient_structure(self):
        # loss = sum(W x): dL/dW[i, j] = x[j]
        w = Parameter("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        x = np.array([[5.0], [7.0]])
        with GradientTape() as tape:
            loss = T.tsum(T.matmul(w, x))
            tape.backward(loss)
        np.testing.assert_allclose(w.grad, np.array([[5.0, 7.0], [5.0, 7.0]]))

    def test_unused_parameter_zero_grad(self):
        used = Parameter("used", np.ones(3))
        unused = Parameter("unused", np.ones(3))
        with GradientTape() as tape:
            loss = T.tsum(T.mul(used, used))
            tape.backward(loss)
        assert (unused.grad == 0).all()
        np.testing.assert_allclose(used.grad, 2 * used.data)

    def test_backward_accumulates(self):
        p = Parameter("p", np.array([3.0]))
        with GradientTape() as tape:
            loss = T.tsum(T.mul(p, p))
            tape.backward(loss)
            g1 = p.grad.copy()
            tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2 * g1)

    def test_disconnected_loss(self):
        p = Parameter("p", np.array([1.0]))
        with GradientTape() as tape:
            _ = T.mul(p, p)
            orphan = Tensor(np.array(1.0))
            with pytest.raises(DisconnectedLossError):
                tape.backward(orphan)

    def test_non_scalar_loss_rejected(self):
        p = Parameter("p", np.ones(3))
        with GradientTape() as tape:
            out = T.mul(p, p)
            with pytest.raises(ShapeMismatchError):
                tape.backward(out)

    def test_branching_graph(self):
        p = Parameter("p", np.array([2.0]))
        with GradientTape() as tape:
            a = T.mul(p, p)        # p^2
            b = T.add(a, p)        # p^2 + p
            loss = T.tsum(T.mul(b, b))  # (p^2+p)^2, d/dp = 2(p^2+p)(2p+1)
            tape.backward(loss)
        np.testing.assert_allclose(p.grad, [2 * 6 * 5])


class TestGradCheck:
    def test_quadratic(self):
        p = Parameter("p", np.array([3.0]))
        err = grad_check(lambda: T.tsum(T.mul(p, p)), [p])
        assert err < 1e-8

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0.1, 2.0, 16) * rng.choice([-1.0, 1.0], 16)
        p = Parameter("p", vals)
        err = grad_check(lambda: T.tsum(T.relu(p)), [p])
        assert err < 1e-6

    def test_each_op(self):
        rng = np.random.default_rng(9)
        w = Parameter("w", rng.normal(0, 0.5, (5, 4)))
        b = Parameter("b", rng.normal(0, 0.5, (4,)))
        x = np.asarray(rng.normal(0, 1.0, (3, 5)))
        mix = np.asarray(rng.normal(size=(3, 4)))

        cases = {
            "linear": lambda: T.tsum(T.linear(Tensor(x), w, b)),
            "softmax": lambda: T.tsum(T.mul(T.softmax(T.matmul(Tensor(x), w)), Tensor(mix))),
            "layer_norm": lambda: T.tsum(T.mul(T.layer_norm(T.matmul(Tensor(x), w)),
                                               Tensor(mix))),
            "concat": lambda: T.tsum(T.concat([T.matmul(Tensor(x), w),
                                               T.reshape(T.mul(b, b), (1, 4))], axis=0)),
            "take_index": lambda: T.tsum(T.take_index(T.matmul(Tensor(x), w), 0, 1)),
            "mean": lambda: T.tmean(T.matmul(Tensor(x), w)),
        }
        for name, f in cases.items():
            err = grad_check(f, [w, b])
            assert err < 1e-6, f"{name}: {err}"

    def test_embedding_grad(self):
        rng = np.random.default_rng(10)
        table = Parameter("t", rng.normal(0, 0.5, (7, 3)))
        idx = np.array([0, 2, 2, 6, 1])
        weights = np.asarray(rng.normal(size=(5, 3)))
        err = grad_check(lambda: T.tsum(T.mul(T.embedding_lookup(table, idx),
                                              Tensor(weights))), [table])
        assert err < 1e-6

    def test_attention_grad(self):
        rng = np.random.default_rng(11)
        q = Parameter("q", rng.normal(0, 0.5, (1, 2, 3, 4)))
        k = Parameter("k", rng.normal(0, 0.5, (1, 2, 3, 4)))
        v = Parameter("v", rng.normal(0, 0.5, (1, 2, 3, 4)))
        mask = np.array([1.0, 1.0, 0.0])[None, None, None, :]
        err = grad_check(
            lambda: T.tsum(T.scaled_dot_product_attention(q, k, v, mask=mask)), [q, k, v])
        assert err < 1e-6


class TestDeterminismAndDtype:
    def test_dtype_switch(self):
        for dtype in (np.float32, np.float64):
            x = Tensor(np.ones((2, 3), dtype=dtype))
            assert x.data.dtype == dtype
            w = Parameter("w", np.ones((3, 2), dtype=dtype))
            assert T.softmax(T.linear(x, w)).data.dtype == dtype
        assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0], dtype=np.float32).data.dtype == np.float32

    def test_forward_deterministic(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 6))
        a = T.softmax(T.layer_norm(Tensor(x))).data
        b = T.softmax(T.layer_norm(Tensor(x.copy()))).data
        assert (a == b).all()
