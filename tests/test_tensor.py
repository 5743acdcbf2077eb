import weakref

import numpy as np
import pytest

from svgnet import tensor as T
from svgnet.gradcheck import grad_check
from svgnet.tensor import GradientTape, Parameter, Tensor


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
        out = T.layer_norm(Tensor([1.0, 2.0, 3.0]))
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3 + T.LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data, expected, rtol=1e-15, atol=0)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(3, 7, (6, 32)))
        out = T.layer_norm(x).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError, match=r"matmul inner dims differ: \(2, 3\) @ \(4, 2\)"):
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


def attend(q, k, v, place, n_heads=1, record=None):
    return T.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), np.asarray(place),
                                          n_heads, record)


class TestAttention:
    def test_single_unmasked_key_returns_value(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(size=(1, 4)) for _ in range(3))
        record = []
        # one row at position 1 of a block of 3: its only visible key is itself
        out = attend(q, k, v, [[1, 0, 1]], n_heads=2, record=record).data
        assert record[0].shape == (1, 2, 3, 3)
        assert (record[0][0, :, 1, [0, 2]] == 0).all()
        assert (out == v).all()

    def test_all_ones_mask_matches_no_mask(self):
        # with no empty position, it is plain dense attention within each block
        rng = np.random.default_rng(5)
        n, t, n_heads, d_h = 2, 3, 2, 4
        q, k, v = (rng.normal(size=(n * t, n_heads * d_h)) for _ in range(3))
        place = np.arange(n * t).reshape(n, t)
        out = attend(q, k, v, place, n_heads).data

        def heads(x):
            return x.reshape(n, t, n_heads, d_h).swapaxes(1, 2)

        logits = heads(q) @ heads(k).swapaxes(-1, -2) / np.sqrt(d_h)
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        dense = (w @ heads(v)).swapaxes(1, 2).reshape(n * t, n_heads * d_h)
        np.testing.assert_allclose(out, dense, rtol=1e-12, atol=1e-14)
        # rows may come in any order: permuting them permutes the output rows
        perm = rng.permutation(n * t)
        where = np.argsort(perm)   # the new index of each old row
        out_p = attend(q[perm], k[perm], v[perm], where[place], n_heads).data
        assert (out_p == out[perm]).all()

    def test_all_masked_row_is_finite(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(2, 4)) for _ in range(3))
        record = []
        # block 1 is empty; blocks 0 and 2 each hold one row
        out = attend(q, k, v, [[0, 2], [2, 2], [2, 1]], record=record).data
        assert np.isfinite(out).all() and np.isfinite(record[0]).all()
        assert (out == v).all()
        # no row at all
        none = np.zeros((0, 4))
        out = attend(none, none, none, np.zeros((2, 3), dtype=int), n_heads=2).data
        assert out.shape == (0, 4)

    def test_masked_values_cannot_leak(self):
        # a row sees only the rows of its own block: mutating the rows of
        # another block leaves its output bit-identical
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(5, 4)) for _ in range(3))
        place = np.array([[4, 1, 5], [0, 3, 2]])   # R = 5: one empty position
        base = attend(q, k, v, place, n_heads=2).data
        hidden = [0, 3, 2]
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        q2[hidden], k2[hidden], v2[hidden] = 555.0, 999.0, -999.0
        mut = attend(q2, k2, v2, place, n_heads=2).data
        assert (mut[[4, 1]] == base[[4, 1]]).all()
        assert not (mut[hidden] == base[hidden]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_halving_max_equals_ndarray_max(self, dtype):
        rng = np.random.default_rng(19)
        for t in range(1, 34):
            x = rng.normal(size=(4, 2, 3, t)).astype(dtype)
            x[0, 0, 0, rng.integers(t)] = np.nan
            x[1] = -T.MASK_LARGE                     # a block whose keys are all hidden
            x[2, :, :, rng.integers(t)] = -T.MASK_LARGE
            x[3, 0, 0] = np.linspace(-1, 1, t)[::-1]   # the max in the first column
            got = T._max_last_axis(x)
            want = x.max(axis=-1, keepdims=True)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True), t
            assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("place", [[[0, 2, 2]], [[0, 0, 1]], [[0, 1, 3]], [[-1, 0, 1]]],
                             ids=["row-missing", "row-twice", "past-empty", "negative"])
    def test_place_must_hold_each_row_once(self, place):
        x = np.ones((2, 4))
        with pytest.raises(IndexError):
            attend(x, x, x, place)


class TestBackward:
    def test_weight_gradient_structure(self):
        # loss = sum(W x): dL/dW[i, j] = x[j]
        w = Parameter("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        x = Tensor(np.array([[5.0], [7.0]]))
        with GradientTape() as tape:
            loss = T.tsum(T.matmul(w, x))
            grads = tape.backward(loss)
        np.testing.assert_allclose(grads[w], np.array([[5.0, 7.0], [5.0, 7.0]]))

    def test_unused_parameter_zero_grad(self):
        # a parameter the loss does not reach has no entry: its gradient is zero
        used = Parameter("used", np.ones(3))
        unused = Parameter("unused", np.ones(3))
        with GradientTape() as tape:
            loss = T.tsum(T.mul(used, used))
            grads = tape.backward(loss)
        assert unused not in grads
        np.testing.assert_allclose(grads[used], 2 * used.data)

    def test_mapping_holds_exactly_the_reached_leaves_in_their_dtype_and_shape(self):
        p32 = Parameter("p32", np.arange(6, dtype=np.float32).reshape(2, 3))
        p64 = Parameter("p64", np.array([1.0, 2.0, 3.0]))
        unused = Parameter("unused", np.ones(3, dtype=np.float32))
        x = Tensor(np.full((2, 3), 0.5))                    # untracked float64 input
        with GradientTape() as tape:
            hidden = T.add(p32, x)                          # float64 from here on
            loss = T.tsum(T.mul(hidden, p64))
            grads = tape.backward(loss)
        assert set(grads) == {p32, p64}
        assert x not in grads and unused not in grads and hidden not in grads
        for p in grads:
            assert grads[p].dtype == p.data.dtype and grads[p].shape == p.shape
        np.testing.assert_array_equal(grads[p32], np.tile(p64.data, (2, 1)))
        np.testing.assert_array_equal(grads[p64], (p32.data + 0.5).sum(axis=0))

    def test_untracked_tensor_grad_stays_none_and_allocates_nothing(self):
        x = Tensor(np.ones((64, 64)))
        p = Parameter("p", np.ones(64))
        assert not hasattr(x, "grad") and not hasattr(p, "grad")
        with GradientTape() as tape:
            grads = tape.backward(T.tsum(T.mul(x, p)))
        assert list(grads) == [p]
        np.testing.assert_array_equal(grads[p], np.full(64, 64.0))

    def test_second_backward_on_one_tape_raises(self):
        p = Parameter("p", np.array([3.0]))
        with GradientTape() as tape:
            loss = T.tsum(T.mul(p, p))
            grads = tape.backward(loss)
            with pytest.raises(ValueError, match="this tape's backward has already run"):
                tape.backward(loss)
        np.testing.assert_allclose(grads[p], [6.0])

    def test_backward_frees_intermediates(self):
        p = Parameter("p", np.ones((4, 4)))
        with GradientTape() as tape:
            hidden = T.relu(T.matmul(p, p))
            loss = T.tsum(T.mul(hidden, hidden))
        ref = weakref.ref(hidden)
        del hidden
        assert ref() is not None
        tape.backward(loss)
        assert ref() is None
        assert not tape._nodes and not tape._retained

    def test_an_outer_tapes_output_is_a_leaf_of_an_inner_tape(self):
        p = Parameter("p", np.array([1.0, 2.0]))
        with GradientTape() as outer:
            hidden = T.mul(p, p)
            with GradientTape() as inner:
                inner_grads = inner.backward(T.tsum(T.mul(hidden, hidden)))
            outer_grads = outer.backward(T.tsum(T.mul(hidden, Tensor(np.array([3.0, 5.0])))))
        assert list(inner_grads) == [hidden]
        np.testing.assert_array_equal(inner_grads[hidden], 2 * hidden.data)
        assert list(outer_grads) == [p]
        np.testing.assert_array_equal(outer_grads[p], 2 * p.data * [3.0, 5.0])

    def test_a_leafs_contributions_are_summed_in_their_dtype_then_cast_once(self):
        # cast one by one, f32(1 + 2**-24) is 1 and 1 + 2**-24 rounds back to 1 in f32
        p = Parameter("p", np.ones(1, dtype=np.float32))
        with GradientTape() as tape:
            big = T.mul(p, Tensor(np.array([1.0 + 2.0 ** -24])))
            small = T.mul(p, Tensor(np.array([2.0 ** -24])))
            grads = tape.backward(T.tsum(T.add(big, small)))
        assert grads[p].dtype == np.float32
        assert grads[p][0] == np.float32(1.0 + 2.0 ** -23)

    def test_linear_adds_the_bias_into_the_matmul_buffer(self):
        # with a residual and a ReLU too, the layer keeps one buffer
        rng = np.random.default_rng(14)
        w = Parameter("w", rng.normal(size=(3, 2)))
        b = Parameter("b", rng.normal(size=(2,)))
        x = rng.normal(size=(4, 3))
        for res, relu in ((None, False), (rng.normal(size=(4, 2)), False),
                          (rng.normal(size=(4, 2)), True)):
            with GradientTape() as tape:
                out = T.linear(Tensor(x), w, b, residual=None if res is None else Tensor(res),
                               relu=relu)
                pre = x @ w.data + b.data + (0.0 if res is None else res)
                assert (out.data == (np.maximum(pre, 0) if relu else pre)).all()
                assert len(tape._retained) == 2
                assert all(t.data is out.data for t in tape._retained)
                grads = tape.backward(T.tsum(out))
            live = (pre > 0) if relu else np.ones_like(pre)
            np.testing.assert_allclose(grads[b], live.sum(axis=0))
            np.testing.assert_allclose(grads[w], x.T @ live)

    def test_disconnected_loss(self):
        p = Parameter("p", np.array([1.0]))
        with GradientTape() as tape:
            _ = T.mul(p, p)
            orphan = Tensor(np.array(1.0))
            with pytest.raises(ValueError, match="loss was not produced under this tape"):
                tape.backward(orphan)

    def test_non_scalar_loss_rejected(self):
        p = Parameter("p", np.ones(3))
        with GradientTape() as tape:
            out = T.mul(p, p)
            with pytest.raises(ValueError, match=r"loss must be scalar, got shape \(3,\)"):
                tape.backward(out)

    def test_branching_graph(self):
        p = Parameter("p", np.array([2.0]))
        with GradientTape() as tape:
            a = T.mul(p, p)        # p^2
            b = T.add(a, p)        # p^2 + p
            loss = T.tsum(T.mul(b, b))  # (p^2+p)^2, d/dp = 2(p^2+p)(2p+1)
            grads = tape.backward(loss)
        np.testing.assert_allclose(grads[p], [2 * 6 * 5])


def _values_and_grads(f, params, mix):
    """f's output and the gradients of sum(f() * mix) for params, in order."""
    with GradientTape() as tape:
        out = f()
        grads = tape.backward(T.tsum(T.mul(out, Tensor(mix))))
    return [out.data] + [grads[p] for p in params]


def _assert_same_bits(fused, composed):
    for a, b in zip(fused, composed, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestFusedOps:
    """The fused forms give the bits of the ops they replace, forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("residual, relu", [(False, True), (True, False), (True, True)],
                             ids=["relu", "residual", "residual-relu"])
    def test_linear_equals_add_and_relu(self, dtype, residual, relu):
        rng = np.random.default_rng(15)
        x = Parameter("x", rng.normal(size=(6, 4)).astype(dtype))
        w = Parameter("w", rng.normal(size=(4, 5)).astype(dtype))
        b = Parameter("b", rng.normal(size=(5,)).astype(dtype))
        res = Parameter("res", rng.normal(size=(6, 5)).astype(dtype))
        # pre-activations exactly 0: x @ w is 0 in row 0, and so is b + res
        # there, or b[0] without a residual
        x.data[0] = 0.0
        b.data[0] = 0.0
        res.data[0] = -b.data
        pre = x.data @ w.data + b.data + (res.data if residual else 0)
        assert (pre == 0).any() and (pre > 0).any() and (pre < 0).any()
        mix = rng.normal(size=(6, 5)).astype(dtype)

        def composed():
            h = T.linear(x, w, b)
            h = T.add(h, res) if residual else h
            return T.relu(h) if relu else h

        def fused():
            return T.linear(x, w, b, residual=res if residual else None, relu=relu)

        params = [x, w, b, res] if residual else [x, w, b]
        got, want = _values_and_grads(fused, params, mix), _values_and_grads(composed, params, mix)
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, axis", [((5, 4), 1), ((5, 4), -1), ((5, 4), 0),
                                             ((3, 4, 6), -1), ((3, 4, 6), 1)])
    def test_embedding_lookup_sum_equals_tsum(self, dtype, shape, axis):
        rng = np.random.default_rng(16)
        table = Parameter("t", rng.normal(size=(7, 3)).astype(dtype))
        # repeats, and the last row as a sentinel that fills whole index rows
        idx = rng.integers(0, 7, size=shape)
        idx[0] = 6
        idx.reshape(-1)[:4] = 2
        ax = axis % len(shape)
        mix = rng.normal(size=shape[:ax] + shape[ax + 1:] + (3,)).astype(dtype)
        got = _values_and_grads(lambda: T.embedding_lookup(table, idx, sum_axis=axis),
                                [table], mix)
        want = _values_and_grads(lambda: T.tsum(T.embedding_lookup(table, idx), axis=ax),
                                 [table], mix)
        _assert_same_bits(got, want)

    def test_embedding_lookup_sum_keeps_no_gathered_block(self):
        table = Parameter("t", np.arange(12.0).reshape(4, 3))
        idx = np.array([[0, 3], [1, 1]])
        with GradientTape() as tape:
            out = T.embedding_lookup(table, idx, sum_axis=1)
            assert out.shape == (2, 3) and len(tape._retained) == 1
            assert out.data.base is None
        np.testing.assert_array_equal(out.data, [[9, 11, 13], [6, 8, 10]])
        for axis in (2, -3):
            with pytest.raises(ValueError, match=f"sum_axis {axis} is not an axis of 2-D"):
                T.embedding_lookup(table, idx, sum_axis=axis)


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

    def test_fused_linear_grad(self):
        rng = np.random.default_rng(17)
        x = Parameter("x", rng.normal(0, 1.0, (4, 5)))
        w = Parameter("w", rng.normal(0, 0.5, (5, 3)))
        b = Parameter("b", rng.normal(0, 0.5, (3,)))
        res = Parameter("res", rng.normal(0, 0.5, (4, 3)))
        mix = np.asarray(rng.normal(size=(4, 3)))
        pre = x.data @ w.data + b.data + res.data
        assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-3
        err = grad_check(lambda: T.tsum(T.mul(T.linear(x, w, b, residual=res, relu=True),
                                              Tensor(mix))), [x, w, b, res])
        assert err < 1e-6

    def test_embedding_sum_grad(self):
        rng = np.random.default_rng(18)
        table = Parameter("t", rng.normal(0, 0.5, (7, 3)))
        idx = np.array([[0, 2, 2, 6], [6, 6, 6, 6], [1, 0, 5, 2]])
        mix = np.asarray(rng.normal(size=(3, 3)))
        err = grad_check(lambda: T.tsum(T.mul(T.embedding_lookup(table, idx, sum_axis=1),
                                              Tensor(mix))), [table])
        assert err < 1e-6

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
        q, k, v = (Parameter(name, rng.normal(0, 0.5, (5, 4))) for name in "qkv")
        mix = np.asarray(rng.normal(size=(5, 4)))
        # rows out of order, empty positions and an all-empty block
        place = np.array([[3, 5, 0], [5, 5, 5], [4, 1, 2]])
        err = grad_check(lambda: T.tsum(T.mul(T.scaled_dot_product_attention(q, k, v, place, 2),
                                              Tensor(mix))), [q, k, v])
        assert err < 1e-6
        # R = 0: backward runs and leaves empty gradients
        empty = [Parameter(name, np.zeros((0, 4))) for name in "qkv"]
        with GradientTape() as tape:
            out = T.scaled_dot_product_attention(*empty, np.zeros((2, 3), dtype=int), 2)
            grads = tape.backward(T.tsum(out))
        assert all(grads[p].shape == (0, 4) for p in empty)

    def test_affine_layer_norm_grad(self):
        rng = np.random.default_rng(13)
        x = Parameter("x", rng.normal(0, 2.0, (3, 6)))
        gamma = Parameter("gamma", rng.normal(1.0, 0.5, (6,)))
        beta = Parameter("beta", rng.normal(0, 0.5, (6,)))
        mix = np.asarray(rng.normal(size=(3, 6)))
        err = grad_check(lambda: T.tsum(T.mul(T.layer_norm(x, gamma, beta), Tensor(mix))),
                         [x, gamma, beta])
        assert err < 1e-6
        plain = T.layer_norm(Tensor(x.data)).data
        assert (T.layer_norm(Tensor(x.data), gamma, beta).data
                == plain * gamma.data + beta.data).all()


class TestDeterminismAndDtype:
    def test_dtype_switch(self):
        for dtype in (np.float32, np.float64):
            x = Tensor(np.ones((2, 3), dtype=dtype))
            assert x.data.dtype == dtype
            w = Parameter("w", np.ones((3, 2), dtype=dtype))
            assert T.softmax(T.linear(x, w)).data.dtype == dtype
        assert Tensor([1.0]).data.dtype == np.float64

    def test_forward_deterministic(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 6))
        a = T.softmax(T.layer_norm(Tensor(x))).data
        b = T.softmax(T.layer_norm(Tensor(x.copy()))).data
        assert (a == b).all()
