"""Checkpoint files: a JSON manifest plus a float32 binary blob.

Manifest schema:
    {"format_version": 1,
     "params": [{"name": str, "shape": [int, ...], "offset": int}, ...]}

The blob holds every tensor as little-endian 32-bit floats concatenated
in manifest order; ``offset`` counts float elements from the blob start.
A checkpoint named ``prefix`` occupies ``prefix.json`` and ``prefix.bin``
(the suffix is appended, so ``run.v1`` and ``run.v2`` do not collide).

Saving streams each array into the blob file in turn, with no copy of a
float32 array and no copy of the whole blob. Loading reads the blob once
and returns views of it, so the manifest's entries must tile the blob
exactly, in order, lest two views alias, and must name distinct arrays.
Every value must be finite, as no trained model holds a NaN or an inf.
Anything else is a DatasetError (CLI exit code 3) naming the file, and the
entry where there is one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .dataset import DatasetError, _atomic_write

FORMAT_VERSION = 1


def _files(prefix: str | Path) -> tuple[Path, Path]:
    prefix = Path(prefix)
    return prefix.with_name(prefix.name + ".json"), prefix.with_name(prefix.name + ".bin")


def save_checkpoint(arrays: dict[str, np.ndarray], prefix: str | Path) -> None:
    """Write name->array mappings in manifest order (dict insertion order).

    The blob is written first, so an array that cannot be converted leaves
    both files as they were.
    """
    manifest_path, blob_path = _files(prefix)
    entries = []

    def blob():
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
            offset += arr.size
            yield arr

    _atomic_write(blob_path, blob())
    manifest = {"format_version": FORMAT_VERSION, "params": entries}
    _atomic_write(manifest_path, [json.dumps(manifest, indent=1).encode("utf-8")])


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_checkpoint(prefix: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint as views of its blob, which must hold exactly the listed floats."""
    manifest_path, blob_path = _files(prefix)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format_version") != FORMAT_VERSION:
            raise DatasetError(
                f"unsupported checkpoint version {manifest.get('format_version')}")
        entries = [(e["name"], e["shape"], e["offset"]) for e in manifest["params"]]
    except (ValueError, AttributeError, KeyError, TypeError) as exc:
        # DatasetError is not a ValueError, so the version check passes through
        raise DatasetError(f"{manifest_path.name}: unreadable manifest ({exc})") from exc
    end = 0
    names = set()
    for name, shape, start in entries:
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(start)):
            raise DatasetError(f"{manifest_path.name}: entry {name!r} needs a string name "
                               f"and a shape and offset of non-negative integers, "
                               f"got {shape!r} and {start!r}")
        if name in names:
            raise DatasetError(f"{manifest_path.name}: entry {name!r} is listed twice")
        names.add(name)
        if start != end:
            raise DatasetError(f"{manifest_path.name}: entry {name!r} starts at {start}, "
                               f"where the entry before it ends at {end}")
        end += math.prod(shape)
    if blob_path.stat().st_size != 4 * end:
        raise DatasetError(f"{blob_path.name} holds {blob_path.stat().st_size} bytes, "
                           f"the manifest needs {4 * end}")
    blob = np.fromfile(blob_path, dtype="<f4")
    arrays = {name: blob[start:start + math.prod(shape)].reshape(shape)
              for name, shape, start in entries}
    for name, arr in arrays.items():   # one entry at a time: no blob-sized temporary
        if not np.isfinite(arr).all():
            raise DatasetError(f"{blob_path.name}: entry {name!r} holds a non-finite value")
    return arrays
