"""Checkpoint files: a JSON manifest plus a float32 binary blob.

Manifest schema:
    {"format_version": 1,
     "params": [{"name": str, "shape": [int, ...], "offset": int}, ...]}

The blob holds every tensor as little-endian 32-bit floats concatenated
in manifest order; ``offset`` counts float elements from the blob start.
A checkpoint named ``prefix`` occupies ``prefix.json`` and ``prefix.bin``
(the suffix is appended, so ``run.v1`` and ``run.v2`` do not collide).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .dataset import _atomic_write_bytes

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _files(prefix: str | Path) -> tuple[Path, Path]:
    prefix = Path(prefix)
    return prefix.with_name(prefix.name + ".json"), prefix.with_name(prefix.name + ".bin")


def save_checkpoint(arrays: dict[str, np.ndarray], prefix: str | Path) -> None:
    """Write name->array mappings in manifest order (dict insertion order)."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.size
    manifest = {"format_version": FORMAT_VERSION, "params": entries}
    manifest_path, blob_path = _files(prefix)
    _atomic_write_bytes(manifest_path, json.dumps(manifest, indent=1).encode("utf-8"))
    _atomic_write_bytes(blob_path, b"".join(chunks))


def load_checkpoint(prefix: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint; the blob must hold exactly the floats the manifest lists."""
    manifest_path, blob_path = _files(prefix)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {manifest.get('format_version')}")
    entries = [(e["name"], tuple(e["shape"]), e["offset"]) for e in manifest["params"]]
    needed = 4 * max((start + math.prod(shape) for _, shape, start in entries), default=0)
    if blob_path.stat().st_size != needed:
        raise CheckpointError(f"{blob_path.name} holds {blob_path.stat().st_size} bytes, "
                              f"the manifest needs {needed}")
    blob = np.fromfile(blob_path, dtype="<f4")
    return {name: blob[start:start + math.prod(shape)].reshape(shape).copy()
            for name, shape, start in entries}
