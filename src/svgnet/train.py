"""MSE objective, AdamW with stepped learning-rate decay, training loop."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .dataset import (Batch, IngestConfig, MissingTargetError, _atomic_write_text,
                      concat_batches, make_batch, normalize_sample)
from .metrics import EmptyInputError
from .model import SvgNet
from .tensor import GradientTape, ShapeMismatchError, Tensor


class NonFiniteLossError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-4
    lr_decay: float = 0.9
    lr_decay_epochs: float = 2.5
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip_norm: float | None = None

    def validate(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.lr_decay_epochs <= 0:
            raise ValueError("lr_decay_epochs must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean over the batch of the summed squared error over all coordinates.

    For one sample this is the sum over the predicted steps of the squared
    Euclidean displacement.
    """
    target = np.asarray(target.data if isinstance(target, Tensor) else target)
    if tuple(target.shape) != pred.shape:
        raise ShapeMismatchError(f"pred {pred.shape} vs target {target.shape}")
    if not np.isfinite(target).all():
        raise ValueError("targets contain non-finite values")
    diff = T.add_const(pred, -target.astype(pred.data.dtype))
    return T.scale(T.tsum(T.mul(diff, diff)), 1.0 / pred.shape[0])


def lr_at(step: int, cfg: TrainConfig, steps_per_epoch: int) -> float:
    """Stepped decay: lr * decay^floor(step / ceil(decay_epochs * spe))."""
    period = math.ceil(cfg.lr_decay_epochs * steps_per_epoch)
    return cfg.lr * cfg.lr_decay ** (step // period)


class AdamW:
    """Decoupled weight decay plus bias-corrected adaptive moments."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.step_count = 0

    def step(self, lr: float) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            if cfg.weight_decay:
                p.data *= 1.0 - lr * cfg.weight_decay
            denom = np.sqrt(v / bc2) + cfg.eps
            p.data -= lr * (m / bc1) / denom

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"m.{name}"] = self.m[name].copy()
            out[f"v.{name}"] = self.v[name].copy()
        out["step"] = np.array([self.step_count], dtype=np.float32)
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            self.m[name] = arrays[f"m.{name}"].astype(p.data.dtype)
            self.v[name] = arrays[f"v.{name}"].astype(p.data.dtype)
        self.step_count = int(arrays["step"][0])


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params.values():
        total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scl = max_norm / norm
        for p in params.values():
            p.grad *= scl
    return norm


def encode_samples(records, ingest: IngestConfig, n_paths: int, n_commands: int,
                   n_agents: int) -> list[Batch]:
    """Encode records as single-sample batches; one without a target is a MissingTargetError."""
    out = []
    for rec in records:
        sample = normalize_sample(rec, ingest)
        if sample.target is None:
            raise MissingTargetError(f"scene {rec.scene_id!r} has no prediction target")
        out.append(make_batch([sample], n_paths, n_commands, n_agents))
    return out


def train(model: SvgNet, encoded: Sequence[Batch], cfg: TrainConfig, *,
          out_dir: str | Path | None = None,
          eval_hook: Callable[[SvgNet], tuple[float, float]] | None = None) -> list[dict]:
    """Run the full training loop on ``encode_samples`` output; returns the per-step loss log.

    An empty ``encoded`` raises EmptyInputError before anything is written.
    A NaN or inf step loss raises NonFiniteLossError, naming the step,
    before that step's update and before any further file is written.
    Deterministic for a fixed config seed (single-threaded). Checkpoints,
    when out_dir is given, are written after every epoch as
    ``model_epoch{N}`` plus final ``model_final`` / ``optimizer_final``.
    eval_hook, when given, is called after each epoch and should return
    (ade, fde) on a validation set.
    """
    cfg.validate()
    n = len(encoded)
    if n == 0:
        raise EmptyInputError("no samples to train on")
    steps_per_epoch = math.ceil(n / cfg.batch_size)

    optimizer = AdamW(model.parameters(), cfg)
    rng = np.random.default_rng(cfg.seed)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    log: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = concat_batches([encoded[i] for i in order[lo:lo + cfg.batch_size]])
            lr = lr_at(step, cfg, steps_per_epoch)
            model.zero_grad()
            with GradientTape() as tape:
                pred, _ = model.forward(batch)
                loss = mse_loss(pred, batch.targets)
                if not np.isfinite(loss.data).all():
                    raise NonFiniteLossError(f"step {step} (epoch {epoch}): loss is {loss.item()}")
                tape.backward(loss)
            if cfg.grad_clip_norm is not None:
                clip_grad_norm(model.parameters(), cfg.grad_clip_norm)
            optimizer.step(lr)
            log.append({"epoch": epoch, "step": step, "lr": lr,
                        "loss": loss.item(), "val_ade": None, "val_fde": None})
            step += 1

        if eval_hook is not None:
            ade, fde = eval_hook(model)
            log.append({"epoch": epoch, "step": step, "lr": lr_at(step, cfg, steps_per_epoch),
                        "loss": None, "val_ade": ade, "val_fde": fde})
        if out_dir is not None:
            save_checkpoint(model.state_arrays(), out_dir / f"model_epoch{epoch:03d}")

    if out_dir is not None:
        save_checkpoint(model.state_arrays(), out_dir / "model_final")
        save_checkpoint(optimizer.state_arrays(), out_dir / "optimizer_final")
        write_loss_log(log, out_dir / "loss_log.jsonl")
    return log


def write_loss_log(log: list[dict], path: str | Path) -> None:
    path = Path(path)
    lines = [json.dumps(entry) for entry in log]
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))

