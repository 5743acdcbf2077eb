"""SVG path commands and their fixed-width encoding: kinds, quantization, splitting.

A scene's map is a set of paths over the command subset {MoveTo, LineTo,
CubicTo, ClosePath}. Each command has six argument slots (c1x, c1y, c2x,
c2y, x, y); a used slot is quantized to one of N_COORD_BINS bins of the
viewport and an unused one holds SENTINEL_BIN. Two extra control kinds, Pad
and Eos, exist only for the fixed-width numeric encoding used by the model.
dataset.make_batch encodes vertex arrays directly with quantize_coords;
SvgCommand, SvgPath, encode_command and split_path are the same encoding one
command at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


# Which of the six argument slots (c1x, c1y, c2x, c2y, x, y) each kind uses.
_USED_SLOTS = {
    CommandKind.PAD: (),
    CommandKind.EOS: (),
    CommandKind.MOVE_TO: (4, 5),
    CommandKind.LINE_TO: (4, 5),
    CommandKind.CUBIC_TO: (0, 1, 2, 3, 4, 5),
    CommandKind.CLOSE_PATH: (),
}

_DRAWABLE = (CommandKind.MOVE_TO, CommandKind.LINE_TO, CommandKind.CUBIC_TO,
             CommandKind.CLOSE_PATH)

N_ARG_SLOTS = 6
N_COORD_BINS = 256
SENTINEL_BIN = -1


@dataclass(frozen=True)
class SvgCommand:
    """One drawing command with a fixed six-slot argument layout.

    Unused slots hold 0.0; which slots are meaningful is determined by
    ``kind`` alone (see ``used_slots``).
    """

    kind: CommandKind
    args: tuple[float, float, float, float, float, float] = (0.0,) * 6

    def __post_init__(self):
        if len(self.args) != N_ARG_SLOTS:
            raise ValueError(f"expected {N_ARG_SLOTS} argument slots, got {len(self.args)}")
        for slot in self.used_slots():
            if not math.isfinite(self.args[slot]):
                raise ValueError(f"non-finite coordinate in slot {slot}: {self.args[slot]}")

    def used_slots(self) -> tuple[int, ...]:
        return _USED_SLOTS[self.kind]

    @property
    def end_point(self) -> tuple[float, float]:
        """Terminal point of a drawable command (MoveTo/LineTo/CubicTo)."""
        return (self.args[4], self.args[5])

    @staticmethod
    def move_to(x: float, y: float) -> "SvgCommand":
        return SvgCommand(CommandKind.MOVE_TO, (0.0, 0.0, 0.0, 0.0, float(x), float(y)))

    @staticmethod
    def line_to(x: float, y: float) -> "SvgCommand":
        return SvgCommand(CommandKind.LINE_TO, (0.0, 0.0, 0.0, 0.0, float(x), float(y)))

    @staticmethod
    def cubic_to(c1x: float, c1y: float, c2x: float, c2y: float,
                 x: float, y: float) -> "SvgCommand":
        return SvgCommand(CommandKind.CUBIC_TO,
                          (float(c1x), float(c1y), float(c2x), float(c2y), float(x), float(y)))

    @staticmethod
    def close_path() -> "SvgCommand":
        return SvgCommand(CommandKind.CLOSE_PATH)


@dataclass(frozen=True)
class SvgPath:
    """An ordered command sequence describing one shape."""

    commands: tuple[SvgCommand, ...]
    id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "commands", tuple(self.commands))
        for cmd in self.commands:
            if cmd.kind == CommandKind.PAD:
                raise ValueError("SvgPath must not contain Pad commands")
        drawables = [c for c in self.commands if c.kind in _DRAWABLE]
        if drawables and drawables[0].kind != CommandKind.MOVE_TO:
            raise ValueError("first drawable command must be MoveTo")

    def __len__(self) -> int:
        return len(self.commands)


@dataclass(frozen=True)
class Viewport:
    """Axis-aligned box mapping scene meters onto the quantization grid."""

    origin: tuple[float, float]
    extent: tuple[float, float]

    def __post_init__(self):
        if self.extent[0] <= 0 or self.extent[1] <= 0:
            raise ValueError(f"viewport extent must be positive, got {self.extent}")


@dataclass(frozen=True)
class CommandVector:
    """Fixed-width numeric form of one command: kind index + quantized args.

    arg bins lie in [0, 255] for used slots and are -1 for unused ones.
    """

    kind_index: int
    arg_bins: tuple[int, int, int, int, int, int]


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def quantize_coords(values, origin, extent) -> np.ndarray:
    """Clip values to [origin, origin + extent] and map them to int16 bins in
    [0, 255], rounding half up; (n, 2) points take (x, y) origin and extent."""
    origin = np.asarray(origin, dtype=np.float64)
    extent = np.asarray(extent, dtype=np.float64)
    rel = (np.clip(values, origin, origin + extent) - origin) / extent * (N_COORD_BINS - 1)
    return np.clip(np.floor(rel + 0.5), 0, N_COORD_BINS - 1).astype(np.int16)


def encode_command(cmd: SvgCommand, viewport: Viewport) -> CommandVector:
    """Quantize a command's used coordinates onto the viewport grid.

    Coordinates outside the viewport are clipped to its boundary first.
    """
    slots = cmd.used_slots()
    bins = [SENTINEL_BIN] * N_ARG_SLOTS
    quantized = quantize_coords([cmd.args[s] for s in slots],
                                [viewport.origin[s % 2] for s in slots],
                                [viewport.extent[s % 2] for s in slots])
    for slot, b in zip(slots, quantized.tolist()):
        bins[slot] = b
    return CommandVector(int(cmd.kind), tuple(bins))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_path(path: SvgPath, max_commands: int) -> list[SvgPath]:
    """Split a long path into chunks of at most max_commands commands.

    Every chunk after the first is prefixed with a MoveTo at the previous
    chunk's current point, so concatenated geometry is unchanged.
    """
    if max_commands < 2:
        raise ValueError("max_commands must be >= 2")
    if len(path.commands) <= max_commands:
        return [path]

    chunks: list[list[SvgCommand]] = [[]]
    cur = (0.0, 0.0)
    subpath_start = (0.0, 0.0)
    for cmd in path.commands:
        if len(chunks[-1]) >= max_commands:
            chunks.append([SvgCommand.move_to(*cur)])
        chunks[-1].append(cmd)
        if cmd.kind == CommandKind.MOVE_TO:
            cur = cmd.end_point
            subpath_start = cur
        elif cmd.kind in (CommandKind.LINE_TO, CommandKind.CUBIC_TO):
            cur = cmd.end_point
        elif cmd.kind == CommandKind.CLOSE_PATH:
            cur = subpath_start

    out = []
    for k, cmds in enumerate(chunks):
        chunk_id = None if path.id is None else f"{path.id}#{k}"
        out.append(SvgPath(tuple(cmds), id=chunk_id))
    return out

