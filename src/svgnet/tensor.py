"""Dense tensors with reverse-mode automatic differentiation.

A define-by-run tape: operations executed while a GradientTape is active
append a node holding their inputs and a backward closure, and keep its
output alive. backward runs once, with one gradient map keyed by tensor:
each node pops its output's entry, adds its closure's results into its
parents' entries and is dropped with its output, so gradients replace
activations, the tape ends empty and the entries left are the leaves'.
Tensors hold only their values, numpy arrays, and every op keeps its
inputs' dtype: the model picks the dtype (float32 for training, float64
for gradient checking) when it creates its parameters and inputs.

A forward pass keeps each node's output and what its closure reads, and
two ops fuse steps to skip buffers that no backward reads. ``linear``
adds its bias, an optional residual and an optional ReLU in place into
its matmul's output, and its second node masks with that same buffer:
a dense layer keeps one buffer. ``embedding_lookup`` with ``sum_axis``
sums the gathered rows inside its node and keeps only the sum.
``layer_norm`` also keeps its normalized input, and
``scaled_dot_product_attention`` its attention weights.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

MASK_LARGE = 1e9
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


class Tensor:
    """A numpy array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named leaf tensor with requires_grad set."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class _Node(NamedTuple):
    parents: tuple[Tensor, ...]
    backward: Callable


class GradientTape:
    """Records one forward pass; backward() consumes it, node by node in reverse order.

    A second backward() on the same tape is a ValueError.
    """

    _stack: list["GradientTape"] = []

    def __init__(self):
        self._nodes: list[_Node] = []
        self._retained: list[Tensor] = []   # node i's output
        self._ran = False

    def __enter__(self) -> "GradientTape":
        GradientTape._stack.append(self)
        return self

    def __exit__(self, *exc):
        GradientTape._stack.pop()
        return False

    @classmethod
    def current(cls) -> "GradientTape | None":
        return cls._stack[-1] if cls._stack else None

    def record(self, out: Tensor, parents: Sequence[Tensor], backward: Callable) -> None:
        self._nodes.append(_Node(tuple(parents), backward))
        self._retained.append(out)

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(leaf) for every leaf with requires_grad set that the loss
        reaches, in the leaf's dtype; emptying the tape.

        A leaf is a tensor that no node of this tape produced: a parameter,
        or an enclosing tape's output. Its contributions are summed in their
        own dtype and the sum is cast once. Two leaves' gradients may be one
        array, so treat them as read-only.
        """
        if self._ran:
            raise ValueError("this tape's backward has already run; record a new tape")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if not any(t is loss for t in self._retained):
            raise ValueError("loss was not produced under this tape")
        self._ran = True

        grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
        while self._nodes:
            node = self._nodes.pop()
            # parents precede their consumers: this entry has all its terms
            g = grads.pop(self._retained.pop(), None)
            if g is not None:
                for p, pg in zip(node.parents, node.backward(g)):
                    if pg is not None and p.requires_grad:
                        grads[p] = grads[p] + pg if p in grads else pg
        return {p: g.astype(p.data.dtype, copy=False) for p, g in grads.items()}


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    tape = GradientTape.current()
    out = Tensor(data)
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out, parents, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar (no gradient for the scalar)."""
    a = _as_tensor(a)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def add_const(a, c) -> Tensor:
    """Add a constant array/scalar (no gradient for the constant)."""
    a = _as_tensor(a)
    return _make(a.data + c, (a,), lambda g: (g,))


def mul_const(a, c) -> Tensor:
    """Multiply by a constant array/scalar (no gradient for the constant)."""
    a = _as_tensor(a)
    c = np.asarray(c, dtype=a.data.dtype)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0)

    def backward(g):
        return (g * (a.data > 0),)

    return _make(out, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)

    return _make(np.asarray(out), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    total = tsum(a, axis=axis, keepdims=keepdims)
    return scale(total, total.data.size / a.data.size)   # == 1 / count, correctly rounded


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(out, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(ts), backward)


def take_index(a, axis: int, index: int) -> Tensor:
    """Select one slice along an axis (gradient scatters back into place)."""
    a = _as_tensor(a)
    out = np.take(a.data, index, axis=axis)

    def backward(g):
        full = np.zeros_like(a.data)
        sl = [slice(None)] * a.ndim
        sl[axis] = index
        full[tuple(sl)] = g
        return (full,)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def linear(x, w: Tensor, b: Tensor | None = None, *, residual=None,
           relu: bool = False) -> Tensor:
    """x @ w + b + residual for x of shape (rows, d_in), then max(., 0) if relu.

    The product is one ``matmul`` node. The bias, then the residual, are
    added into that node's output buffer in place and the ReLU is applied
    there too, which is safe because matmul's backward reads only its
    inputs. A second node then keeps that same buffer as its output: its
    backward masks the gradient with ``out > 0`` when relu is set, passes
    it on to the product and the residual, and sums it over rows for b.
    So a dense layer, with or without a residual and a ReLU, keeps one
    buffer on the tape.
    """
    out = matmul(x, w)
    if b is None and residual is None and not relu:
        return out
    y = out.data
    parents = (out,)
    if b is not None:
        y += b.data
        parents += (b,)
    if residual is not None:
        residual = _as_tensor(residual)
        y += residual.data
        parents += (residual,)
    if relu:
        np.maximum(y, 0, out=y)

    def backward(g):
        if relu:
            g = g * (y > 0)
        return (g,) + tuple(_unbroadcast(g, p.shape) for p in parents[1:])

    return _make(y, parents, backward)


# ---------------------------------------------------------------------------
# Normalization and attention primitives
# ---------------------------------------------------------------------------

def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward)


def layer_norm(a, gamma: Tensor | None = None, beta: Tensor | None = None) -> Tensor:
    """Normalize to zero mean / unit variance along the last axis, then, when
    given, scale by gamma and shift by beta (both or neither).

    One node, which keeps the normalized input besides its output.
    """
    if (gamma is None) != (beta is None):
        raise ValueError("layer_norm takes gamma and beta together")
    a = _as_tensor(a)
    mean = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    affine = () if gamma is None else (gamma, beta)
    out = xhat
    if affine:
        out = xhat * gamma.data
        out += beta.data

    def backward(g):
        grads = ()
        if affine:
            grads = (_unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape))
            g = g * gamma.data
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return ((g - gm - xhat * gx) * inv_std,) + grads

    return _make(out, (a,) + affine, backward)


def embedding_lookup(table: Tensor, indices, sum_axis: int | None = None) -> Tensor:
    """Gather rows of a (rows, dim) table at indices, to indices.shape + (dim,).

    With sum_axis, an axis of indices, the gathered rows are summed over
    it in the same node, and the gathered block is freed before the node
    returns. The backward scatter-adds each row's gradient into the table
    by a sorted segment-sum, and reads only the indices.
    """
    idx = np.asarray(indices)
    if table.ndim != 2:
        raise ValueError("embedding table must be 2-D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError("embedding index out of range")
    out = table.data[idx]
    if sum_axis is not None:
        if not -idx.ndim <= sum_axis < idx.ndim:
            raise ValueError(f"sum_axis {sum_axis} is not an axis of {idx.ndim}-D indices")
        sum_axis %= idx.ndim
        out = out.sum(axis=sum_axis)

    def backward(g):
        if sum_axis is not None:
            g = np.broadcast_to(np.expand_dims(g, sum_axis), idx.shape + g.shape[-1:])
        flat_idx = idx.reshape(-1)
        flat_g = g.reshape(-1, table.shape[1])
        g_table = np.zeros_like(table.data)
        # sorted segment-sum: much faster than np.add.at for large gathers
        order = np.argsort(flat_idx, kind="stable")
        sorted_idx = flat_idx[order]
        uniq, starts = np.unique(sorted_idx, return_index=True)
        g_table[uniq] = np.add.reduceat(flat_g[order], starts, axis=0)
        return (g_table,)

    return _make(out, (table,), backward)


def _max_last_axis(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) as a new array, by halving: np.maximum
    of the two halves of the last axis, with an odd length's last column
    folded into the first, until one column is left. Max is order-free,
    so the bits are the same; on a short last axis this is about twice as
    fast as the reduction."""
    m = x
    while m.shape[-1] > 1:
        half = m.shape[-1] // 2
        h = np.maximum(m[..., :half], m[..., half:2 * half])
        if m.shape[-1] % 2:
            np.maximum(h[..., :1], m[..., -1:], out=h[..., :1])
        m = h
    return x.copy() if m is x else m


def scaled_dot_product_attention(q, k, v, place, n_heads: int,
                                 record: list | None = None) -> Tensor:
    """Multi-head self-attention within blocks of placed rows, as one node.

    q, k and v hold (R, d_m) rows. place is an (n, t) index: entry
    [i, j] is the row at position j of block i, or R where that position
    is empty, and each row sits at exactly one position, in any order.
    The rows are put into zero-filled (n, H, t, d_m / H) blocks, and
    each block computes softmax(q kT / sqrt(d_m / H) + (mask - 1) *
    MASK_LARGE) v, where mask is 0 at its empty keys. An empty key so
    gets a weight of exactly 0 in any block that holds a row, and a
    row's output depends only on the rows of its own block. The output
    is gathered back to (R, d_m) in row order. The node keeps only the
    attention weights: its backward rebuilds the blocks from q, k and v.
    When ``record`` is a list, the (n, H, t, t) weights are appended to
    it.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    n_rows, d_m = q.shape
    if k.shape != q.shape or v.shape != q.shape:
        raise ValueError(f"q, k and v differ: {q.shape}, {k.shape}, {v.shape}")
    if d_m % n_heads:
        raise ValueError(f"d_m={d_m} is not divisible by n_heads={n_heads}")
    place = np.asarray(place)
    n, t = place.shape
    flat = place.reshape(-1)
    real = flat < n_rows
    at = np.flatnonzero(real)
    rows = flat[at]
    order = np.argsort(rows)
    if not np.array_equal(rows[order], np.arange(n_rows)) or (flat.size and flat.max() > n_rows):
        raise IndexError("place must hold each of the R rows once and R at empty positions")
    at = at[order]                            # the position of each row
    d_h = d_m // n_heads
    dt = q.data.dtype

    def blocks(x: np.ndarray) -> np.ndarray:
        out = np.zeros((n * t, d_m), dt)
        out[at] = x
        return np.swapaxes(out.reshape(n, t, n_heads, d_h), 1, 2)

    def unblock(x: np.ndarray) -> np.ndarray:
        return np.swapaxes(x, 1, 2).reshape(n * t, d_m)[at]

    s = 1.0 / math.sqrt(d_h)
    attn = blocks(q.data) @ np.swapaxes(blocks(k.data), -1, -2)
    attn *= s
    attn += (real.reshape(n, 1, 1, t).astype(dt) - 1.0) * MASK_LARGE
    attn -= _max_last_axis(attn)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    if record is not None:
        record.append(attn)
    out = unblock(attn @ blocks(v.data))

    def backward(g):
        gb = blocks(g)
        gv = np.swapaxes(attn, -1, -2) @ gb
        gl = gb @ np.swapaxes(blocks(v.data), -1, -2)
        gl -= (gl * attn).sum(axis=-1, keepdims=True)
        gl *= attn
        gl *= s
        gq = gl @ blocks(k.data)
        gk = np.swapaxes(gl, -1, -2) @ blocks(q.data)
        return unblock(gq), unblock(gk), unblock(gv)

    return _make(out, (q, k, v), backward)
