"""Displacement metrics, miss rate, and the constant-velocity baseline."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import (Batch, IngestConfig, InsufficientHistoryError, _atomic_write_text,
                      apply_affine_points, concat_batches, make_batch, normalize_sample)
from .tensor import ShapeMismatchError


class EmptyInputError(ValueError):
    pass


MISS_THRESHOLD = 2.0  # meters; a miss is a final error strictly beyond this


@dataclass
class MetricsReport:
    ade: float
    fde: float
    miss_rate: float
    n_samples: int
    per_sample: list[dict] | None = None

    def to_json_obj(self) -> dict:
        obj = {"ade": self.ade, "fde": self.fde, "miss_rate": self.miss_rate,
               "n_samples": self.n_samples}
        if self.per_sample is not None:
            obj["per_sample"] = self.per_sample
        return obj

    def write_json(self, path: str | Path) -> None:
        _atomic_write_text(Path(path), json.dumps(self.to_json_obj(), indent=1) + "\n")


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise ShapeMismatchError(f"trajectory shapes differ: {pred.shape} vs {gt.shape}")
    return pred, gt


def ade(pred, gt) -> float:
    """Mean Euclidean displacement over all predicted steps."""
    pred, gt = _check_pair(pred, gt)
    return float(np.linalg.norm(pred - gt, axis=1).mean())


def fde(pred, gt) -> float:
    """Euclidean displacement at the final predicted step."""
    pred, gt = _check_pair(pred, gt)
    return float(np.linalg.norm(pred[-1] - gt[-1]))


def miss_rate(fdes: Sequence[float], threshold: float = MISS_THRESHOLD) -> float:
    """Fraction of samples whose final error is strictly above the threshold."""
    fdes = np.asarray(fdes, dtype=np.float64)
    if fdes.size == 0:
        raise EmptyInputError("miss_rate needs at least one sample")
    return float((fdes > threshold).mean())


def constant_velocity_baseline(history: np.ndarray, t_pred: int = 30,
                               k_vel: int = 3) -> np.ndarray:
    """Extrapolate the displacement averaged over the last k_vel frames.

    Falls back to the longest available window when the history is shorter
    than k_vel + 1 frames; fewer than 2 frames is an error.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 2 or history.shape[0] < 2:
        raise InsufficientHistoryError("need at least 2 observed frames")
    k = min(k_vel, history.shape[0] - 1)
    v = (history[-1] - history[-1 - k]) / k
    steps = np.arange(1, t_pred + 1, dtype=np.float64)[:, None]
    return history[-1] + steps * v


# ---------------------------------------------------------------------------
# Dataset-level evaluation
# ---------------------------------------------------------------------------

def model_predictor(model) -> Callable[[Batch], np.ndarray]:
    def predict(batch: Batch) -> np.ndarray:
        return model.predict(batch)
    return predict


def constant_velocity_predictor(t_pred: int = 30, k_vel: int = 3
                                ) -> Callable[[Batch], np.ndarray]:
    def predict(batch: Batch) -> np.ndarray:
        hist = batch.main_history.reshape(len(batch), -1, 2)
        preds = [constant_velocity_baseline(h, t_pred, k_vel) for h in hist]
        return np.stack(preds).reshape(len(batch), -1)
    return predict


def evaluate(predict_fn: Callable[[Batch], np.ndarray], data, *,
             ingest: IngestConfig | None = None, caps: tuple[int, int, int] = (128, 30, 16),
             batch_size: int = 64, per_sample: bool = False) -> MetricsReport:
    """Aggregate ADE / FDE / miss rate in de-normalized city-frame meters.

    ``data`` is a sequence of SceneRecords or of pre-encoded single-sample
    batches. Records without prediction targets are rejected.
    """
    ingest = ingest or IngestConfig()
    if isinstance(data[0], Batch):
        encoded = list(data)
    else:
        encoded = []
        for rec in data:
            sample = normalize_sample(rec, ingest)
            if sample.target is None:
                raise ValueError(f"scene {rec.scene_id!r} has no prediction target")
            encoded.append(make_batch([sample], *caps))

    ades, fdes, rows = [], [], []
    for lo in range(0, len(encoded), batch_size):
        batch = concat_batches(encoded[lo:lo + batch_size])
        preds = predict_fn(batch)
        for i in range(len(batch)):
            pred_city = apply_affine_points(batch.frame_to_city[i],
                                            preds[i].reshape(-1, 2).astype(np.float64))
            gt_city = apply_affine_points(batch.frame_to_city[i],
                                          batch.targets[i].reshape(-1, 2).astype(np.float64))
            a, f = ade(pred_city, gt_city), fde(pred_city, gt_city)
            ades.append(a)
            fdes.append(f)
            if per_sample:
                rows.append({"scene_id": batch.scene_ids[i], "ade": a, "fde": f,
                             "miss": bool(f > MISS_THRESHOLD)})

    if not ades:
        raise EmptyInputError("no samples evaluated")
    return MetricsReport(ade=float(np.mean(ades)), fde=float(np.mean(fdes)),
                         miss_rate=miss_rate(fdes), n_samples=len(ades),
                         per_sample=rows if per_sample else None)


def write_per_sample_csv(report: MetricsReport, path: str | Path) -> None:
    if report.per_sample is None:
        raise ValueError("report has no per-sample rows")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scene_id", "ade", "fde", "miss"])
    for row in report.per_sample:
        writer.writerow([row["scene_id"], row["ade"], row["fde"], int(row["miss"])])
    _atomic_write_text(Path(path), out.getvalue())
