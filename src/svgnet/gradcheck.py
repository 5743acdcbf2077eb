"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .tensor import GradientTape, Tensor

FD_EPS = 1e-5   # the central-difference step


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor],
               max_coords_per_param: int | None = None, rng=None) -> float:
    """Compare tape gradients of a scalar function against central differences.

    f is a deterministic closure over ``params`` returning a scalar Tensor.
    The tape computes in the dtype of the tensors it is given, so build
    the parameters and inputs in float64 (for a model,
    ``SvgNet(cfg, dtype=np.float64)``) for meaningful tolerances. When
    max_coords_per_param is set, only a seeded random subset of each
    parameter's coordinates is finite-differenced (half of the subset is
    drawn from coordinates with nonzero analytic gradient, when any
    exist), which keeps large models tractable.

    Returns the max relative error, |a - b| / max(|a|, |b|, 1e-8).
    """
    params = list(params)
    with GradientTape() as tape:
        grads = tape.backward(f())
    analytic = [grads.get(p, np.zeros_like(p.data)) for p in params]

    if rng is None:
        rng = np.random.default_rng(0)

    max_err = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        n = flat.size
        if max_coords_per_param is None or n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            half = max_coords_per_param // 2
            nonzero = np.flatnonzero(a_flat)
            picked = []
            if nonzero.size:
                picked.append(rng.choice(nonzero, size=min(half, nonzero.size), replace=False))
            picked.append(rng.choice(n, size=max_coords_per_param - sum(len(x) for x in picked),
                                     replace=False))
            coords = np.unique(np.concatenate(picked))
        for i in coords:
            orig = flat[i]
            flat[i] = orig + FD_EPS
            hi = float(f().data)
            flat[i] = orig - FD_EPS
            lo = float(f().data)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * FD_EPS)
            an = float(a_flat[i])
            err = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            max_err = max(max_err, err)
    return max_err
