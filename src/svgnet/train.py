"""MSE objective, AdamW with stepped learning-rate decay, training loop."""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .dataset import (Batch, DatasetError, _atomic_write_text, concat_batches, make_batch,
                      normalize_sample)
from .model import ModelConfig, SvgNet
from .tensor import GradientTape, Tensor


class NonFiniteLossError(RuntimeError):
    pass


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # AdamW moment decays and denominator floor
LR_DECAY = 0.9   # the learning rate's factor every lr_decay_epochs


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-4
    lr_decay_epochs: float = 2.5
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject settings that would train silently wrong; NaN fails every check."""
        for name in ("lr", "lr_decay_epochs"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean over the batch of the summed squared error over all coordinates.

    For one sample this is the sum over the predicted steps of the squared
    Euclidean displacement.
    """
    target = np.asarray(target.data if isinstance(target, Tensor) else target)
    if tuple(target.shape) != pred.shape:
        raise ValueError(f"pred {pred.shape} vs target {target.shape}")
    if not np.isfinite(target).all():
        raise ValueError("targets contain non-finite values")
    diff = T.add_const(pred, -target.astype(pred.data.dtype))
    return T.scale(T.tsum(T.mul(diff, diff)), 1.0 / pred.shape[0])


def lr_at(step: int, cfg: TrainConfig, steps_per_epoch: int) -> float:
    """Stepped decay: lr * LR_DECAY^floor(step / ceil(lr_decay_epochs * spe))."""
    period = math.ceil(cfg.lr_decay_epochs * steps_per_epoch)
    return cfg.lr * LR_DECAY ** (step // period)


class AdamW:
    """Decoupled weight decay plus bias-corrected adaptive moments, with
    decays BETA1 and BETA2 and denominator floor ADAM_EPS.

    step() takes the mapping a tape's backward returns, and reads it
    only: a parameter it lacks has a zero gradient. Each parameter's
    moments are allocated at the first step, after backward has freed
    the tape, so they do not add to the peak memory of the first
    training step.
    """

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def _moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self.m:
            self.m[name] = np.zeros_like(self.params[name].data)
            self.v[name] = np.zeros_like(self.params[name].data)
        return self.m[name], self.v[name]

    def step(self, grads: dict[Tensor, np.ndarray], lr: float) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = grads.get(p, 0.0)
            m, v = self._moments(name)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            if cfg.weight_decay:
                p.data *= 1.0 - lr * cfg.weight_decay
            denom = np.sqrt(v / bc2) + ADAM_EPS
            p.data -= lr * (m / bc1) / denom

    def live_state(self) -> dict[str, np.ndarray]:
        """The live moment arrays in checkpoint order, then the step count."""
        out = {}
        for name in self.params:
            out[f"m.{name}"], out[f"v.{name}"] = self._moments(name)
        out["step"] = np.array([self.step_count], dtype=np.float32)
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            self.m[name] = arrays[f"m.{name}"].astype(p.data.dtype)
            self.v[name] = arrays[f"v.{name}"].astype(p.data.dtype)
        self.step_count = int(arrays["step"][0])


def encode_samples(records, cfg: ModelConfig) -> list[Batch]:
    """Encode records as single-sample batches at cfg's horizon, split limit
    and slot caps; a record without a target is a DatasetError."""
    out = []
    for rec in records:
        sample = normalize_sample(rec, cfg.ingest)
        if sample.target is None:
            raise DatasetError(f"scene {rec.scene_id!r} has no prediction target")
        out.append(make_batch([sample], *cfg.caps))
    return out


def train(model: SvgNet, encoded: Sequence[Batch], cfg: TrainConfig, *,
          out_dir: str | Path | None = None) -> list[dict]:
    """Run the full training loop on ``encode_samples(records, model.cfg)``; returns
    the loss log, {"epoch", "step", "lr", "loss"} per step, as ``loss_log.jsonl`` holds it.

    An empty ``encoded`` raises ValueError before anything is written.
    Each step's gradients are the mapping its tape's backward returns;
    they are applied and dropped within the step.
    A NaN or inf step loss, or a NaN or inf in any parameter's gradient
    (a finite loss can still overflow in backward), raises
    NonFiniteLossError naming the step, and the first such parameter in
    parameter order, before that step's update and before
    any further file is written.
    Before returning, it frees the optimizer and hands the heap pages that
    the tapes and the optimizer freed back to the OS (release_free_heap).
    Deterministic for a fixed config seed and a fixed BLAS thread count:
    a multi-threaded BLAS may split a matmul's sum differently, and that
    changes the weights (``svgnet.cli.main`` runs one thread; a library
    caller sets its own). Checkpoints,
    when out_dir is given, are written after every epoch as
    ``model_epoch{N}`` plus final ``model_final`` / ``optimizer_final``.
    """
    n = len(encoded)
    if n == 0:
        raise ValueError("no samples to train on")
    steps_per_epoch = math.ceil(n / cfg.batch_size)

    optimizer = AdamW(model.parameters(), cfg)
    rng = np.random.default_rng(cfg.seed)
    out_dir = Path(out_dir) if out_dir is not None else None

    log: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = concat_batches([encoded[i] for i in order[lo:lo + cfg.batch_size]])
            lr = lr_at(step, cfg, steps_per_epoch)
            with GradientTape() as tape:
                pred, _ = model.forward(batch)
                loss = mse_loss(pred, batch.targets)
                if not np.isfinite(loss.data).all():
                    raise NonFiniteLossError(f"step {step} (epoch {epoch}): loss is {loss.item()}")
                grads = tape.backward(loss)
            for name, p in model.parameters().items():
                if p in grads and not np.isfinite(grads[p]).all():
                    raise NonFiniteLossError(
                        f"step {step} (epoch {epoch}): gradient of {name!r} is not finite")
            optimizer.step(grads, lr)
            del grads   # free them before the next forward
            log.append({"epoch": epoch, "step": step, "lr": lr, "loss": loss.item()})
            step += 1

        if out_dir is not None:
            save_checkpoint(_weights(model), out_dir / f"model_epoch{epoch:03d}")

    if out_dir is not None:
        save_checkpoint(_weights(model), out_dir / "model_final")
        save_checkpoint(optimizer.live_state(), out_dir / "optimizer_final")
        write_loss_log(log, out_dir / "loss_log.jsonl")
    del optimizer
    release_free_heap()
    return log


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim   # glibc only
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def release_free_heap() -> None:
    """Return the C heap's free pages to the OS; a no-op without glibc.

    A paper-size training step at B=4 frees about 70 MB of activations.
    glibc's free() gives back only the top of the heap, so freed pages
    below any live allocation stay resident, and how many do depends on
    where a few small allocations happened to land. Without this call, the
    peak RSS of a train-paper-b4 benchmark run (seed 0, 2-CPU x86-64
    Linux) moved between 295 and 365 MB as the process environment grew by
    up to 4 KB, when a step still held about 100 MB; with it, ten runs
    peaked at 219.2-219.5 MB. The price is that the next step
    faults the released pages back in: a loop of one-step train() calls
    pays that every step (about 12% of a paper-size step there).
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _weights(model: SvgNet) -> dict[str, np.ndarray]:
    """The live parameter arrays, in state_arrays() order, for saving without a copy."""
    return {name: p.data for name, p in model.parameters().items()}


def write_loss_log(log: list[dict], path: str | Path) -> None:
    path = Path(path)
    lines = [json.dumps(entry, allow_nan=False) for entry in log]
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))

