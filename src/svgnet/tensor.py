"""Dense tensors with reverse-mode automatic differentiation.

A define-by-run tape: operations executed while a GradientTape is active
append a node holding their inputs and a backward closure. Values are
numpy arrays and every op keeps its inputs' dtype: the model picks the
dtype (float32 for training, float64 for gradient checking) when it
creates its parameters and inputs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

MASK_LARGE = 1e9


class ShapeMismatchError(ValueError):
    pass


class DisconnectedLossError(ValueError):
    pass


class Tensor:
    """A numpy array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.astype(self.data.dtype, copy=False)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named leaf tensor with a gradient accumulator."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.zero_grad()

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class _Node:
    __slots__ = ("out_id", "parents", "backward")

    def __init__(self, out_id: int, parents: tuple[Tensor, ...], backward: Callable):
        self.out_id = out_id
        self.parents = parents
        self.backward = backward


class GradientTape:
    """Records one forward pass; backward() walks nodes in reverse order."""

    _stack: list["GradientTape"] = []

    def __init__(self):
        self._nodes: list[_Node] = []
        self._out_ids: set[int] = set()
        # keep outputs alive so id()s stay unique for the tape's lifetime
        self._retained: list[Tensor] = []

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
        self._nodes.append(_Node(id(out), tuple(parents), backward))
        self._out_ids.add(id(out))
        self._retained.append(out)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad."""
        if loss.data.size != 1:
            raise ShapeMismatchError(f"loss must be scalar, got shape {loss.shape}")
        if id(loss) not in self._out_ids:
            raise DisconnectedLossError("loss was not produced under this tape")

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g = grads.pop(node.out_id, None)
            if g is None:
                continue
            parent_grads = node.backward(g)
            for p, pg in zip(node.parents, parent_grads):
                if pg is None or not _tracked(p, self):
                    continue
                if id(p) in self._out_ids:
                    if id(p) in grads:
                        grads[id(p)] = grads[id(p)] + pg
                    else:
                        grads[id(p)] = pg
                else:
                    p.accumulate_grad(pg)


def _tracked(t: Tensor, tape: GradientTape) -> bool:
    return t.requires_grad or id(t) in tape._out_ids


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    tape = GradientTape.current()
    out = Tensor(data)
    if tape is not None and any(_tracked(p, tape) for p in parents):
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
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).astype(a.data.dtype, copy=False),)

    return _make(np.asarray(out), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[ax] for ax in axis]))
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


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
        raise ShapeMismatchError("matmul requires tensors with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def linear(x, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b with x of shape (..., d_in)."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


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


def layer_norm(a, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along one axis (no affine)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    a = _as_tensor(a)
    mean = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    n = a.shape[axis]

    def backward(g):
        gm = g.mean(axis=axis, keepdims=True)
        gx = (g * xhat).mean(axis=axis, keepdims=True)
        return ((g - gm - xhat * gx) * inv_std,)

    return _make(xhat, (a,), backward)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of a (rows, dim) table; gradient scatter-adds rows back."""
    idx = np.asarray(indices)
    if table.ndim != 2:
        raise ShapeMismatchError("embedding table must be 2-D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError("embedding index out of range")
    out = table.data[idx]

    def backward(g):
        flat_idx = idx.reshape(-1)
        flat_g = g.reshape(-1, table.shape[1])
        grad = np.zeros_like(table.data)
        # sorted segment-sum: much faster than np.add.at for large gathers
        order = np.argsort(flat_idx, kind="stable")
        sorted_idx = flat_idx[order]
        uniq, starts = np.unique(sorted_idx, return_index=True)
        grad[uniq] = np.add.reduceat(flat_g[order], starts, axis=0)
        return (grad,)

    return _make(out, (table,), backward)


def scaled_dot_product_attention(q, k, v, mask=None, record: list | None = None) -> Tensor:
    """softmax(q kT / sqrt(d) + (mask - 1) * MASK_LARGE) v.

    mask holds 1 for visible keys and 0 for hidden ones, broadcastable to
    the logit shape (..., Tq, Tk); a hidden key gets a weight of exactly 0
    in any row that has a visible key. A row whose keys are all hidden
    stays finite but mixes hidden values, so the caller must discard its
    output. When ``record`` is a list, the attention weight array is
    appended to it.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    d = q.shape[-1]
    logits = scale(matmul(q, swapaxes(k, -1, -2)), 1.0 / math.sqrt(d))
    if mask is not None:
        mask_arr = np.asarray(mask, dtype=logits.data.dtype)
        logits = add_const(logits, (mask_arr - 1.0) * MASK_LARGE)
    attn = softmax(logits, axis=-1)
    if record is not None:
        record.append(attn.data)
    return matmul(attn, v)
