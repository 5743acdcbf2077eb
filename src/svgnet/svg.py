"""SVG path commands in their fixed-width encoding: kinds, bins and quantization.

A scene's map is a set of paths over the command subset {MoveTo, LineTo,
CubicTo, ClosePath}. Each command is encoded as a kind index and six argument
slots (c1x, c1y, c2x, c2y, x, y); a used slot holds one of N_COORD_BINS bins of
the view, the square [-extent/2, extent/2]^2 around the agent, and an unused one
SENTINEL_BIN. Two extra control kinds, Pad and Eos, exist only for the
fixed-width encoding. Every lane path is a MoveTo then LineTos, which use the
(x, y) slots only: dataset.make_batch encodes a scene's lane chunks from their
vertex arrays with quantize_coords.

split_path and encode_command state the same rules one path and one command
at a time. The tests compare make_batch with them, and the benchmark's tracer
patches their names in dataset; nothing else calls them.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class CommandKind(IntEnum):
    """Command kinds in fixed encoding order (index == embedding row)."""

    PAD = 0
    EOS = 1
    MOVE_TO = 2
    LINE_TO = 3
    CUBIC_TO = 4
    CLOSE_PATH = 5


N_ARG_SLOTS = 6
N_COORD_BINS = 256
SENTINEL_BIN = -1


def quantize_coords(values, extent: float) -> np.ndarray:
    """Clip values to [-extent/2, extent/2] and map them to int16 bins in
    [0, 255], rounding half up; extent is the side of the square view."""
    half = extent / 2.0
    rel = (np.clip(values, -half, half) + half) / extent * (N_COORD_BINS - 1)
    return np.clip(np.floor(rel + 0.5), 0, N_COORD_BINS - 1).astype(np.int16)


def encode_command(kind: CommandKind, x: float, y: float,
                   extent: float) -> tuple[int, tuple[int, ...]]:
    """A MoveTo or LineTo to (x, y) as its kind index and six argument bins.

    The point is clipped to the view; the four control slots are unused.
    """
    bx, by = quantize_coords([x, y], extent).tolist()
    return int(kind), (SENTINEL_BIN,) * 4 + (bx, by)


def split_path(points: np.ndarray, max_commands: int) -> list[np.ndarray]:
    """Split one polyline's (n, 2) vertices into chunks of at most max_commands.

    Chunk k holds vertices [k*(mc-1), k*(mc-1)+mc) cut at n, so each chunk
    after the first starts on the last vertex of the one before, and the
    chunks draw the same segments as the whole. Chunks are views of points.
    """
    if max_commands < 2:
        raise ValueError("max_commands must be >= 2")
    return [points[k:k + max_commands]
            for k in range(0, max(len(points) - 1, 1), max_commands - 1)]
