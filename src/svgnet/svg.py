"""SVG path objects: parsing, serialization, quantization, and splitting.

Scenes are represented as a flat collection of path objects. Only the
command subset {MoveTo, LineTo, CubicTo, ClosePath} is modelled; quadratic
Beziers are degree-elevated to cubics on input, and everything else
(arcs, shorthand commands) is rejected. Two extra control kinds, Pad and
Eos, exist only for the fixed-width numeric encoding used by the model.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import IntEnum


class SvgError(Exception):
    """Base class for all SVG handling errors."""


class UnsupportedCommandError(SvgError):
    pass


class MalformedNumberError(SvgError):
    pass


class ArityError(SvgError):
    pass


class XmlParseError(SvgError):
    pass


class MissingViewportError(SvgError):
    pass


class OutOfViewportError(SvgError):
    pass


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

    def contains(self, x: float, y: float) -> bool:
        ox, oy = self.origin
        w, h = self.extent
        return ox <= x <= ox + w and oy <= y <= oy + h


@dataclass(frozen=True)
class SvgDocument:
    """A scene: an order-insensitive set of paths plus its viewport."""

    paths: tuple[SvgPath, ...]
    viewport: Viewport

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))


@dataclass(frozen=True)
class CommandVector:
    """Fixed-width numeric form of one command: kind index + quantized args.

    arg bins lie in [0, 255] for used slots and are -1 for unused ones.
    """

    kind_index: int
    arg_bins: tuple[int, int, int, int, int, int]


# ---------------------------------------------------------------------------
# Path-data grammar
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_SEPARATORS = " \t\r\n,"
_SUPPORTED_LETTERS = "MmLlCcQqZz"
# arity of each supported command letter (upper/lower share arity)
_ARITY = {"M": 2, "L": 2, "C": 6, "Q": 4, "Z": 0}


def _tokenize(d: str) -> list:
    """Split path data into command letters and floats.

    Raises UnsupportedCommandError for letters outside the supported set
    and MalformedNumberError for anything that is neither a separator,
    a command letter, nor a valid number.
    """
    tokens = []
    i, n = 0, len(d)
    while i < n:
        ch = d[i]
        if ch in _SEPARATORS:
            i += 1
            continue
        if ch.isalpha():
            if ch not in _SUPPORTED_LETTERS:
                raise UnsupportedCommandError(f"unsupported path command {ch!r}")
            tokens.append(ch)
            i += 1
            continue
        m = _NUMBER_RE.match(d, i)
        if m is None:
            raise MalformedNumberError(f"cannot read a number at position {i}: {d[i:i + 12]!r}")
        tokens.append(float(m.group()))
        i = m.end()
    return tokens


def _elevate_quadratic(p0, q, p2) -> SvgCommand:
    # exact degree elevation: c1 = p0 + 2/3 (q - p0), c2 = p2 + 2/3 (q - p2)
    c1x = p0[0] + 2.0 / 3.0 * (q[0] - p0[0])
    c1y = p0[1] + 2.0 / 3.0 * (q[1] - p0[1])
    c2x = p2[0] + 2.0 / 3.0 * (q[0] - p2[0])
    c2y = p2[1] + 2.0 / 3.0 * (q[1] - p2[1])
    return SvgCommand.cubic_to(c1x, c1y, c2x, c2y, p2[0], p2[1])


def parse_path_data(d: str, path_id: str | None = None) -> SvgPath:
    """Parse an SVG path-data string into an absolute-coordinate SvgPath.

    Supports M/m, L/l, C/c, Q/q, Z/z with the standard implicit-repetition
    rules (extra coordinate pairs after a moveto are linetos). Relative
    commands are resolved to absolute coordinates and quadratic Beziers
    are degree-elevated to cubics.

    Raises:
        UnsupportedCommandError: any other command letter.
        MalformedNumberError: unreadable numeric input.
        ArityError: argument count is not a multiple of the command arity.
    """
    tokens = _tokenize(d)
    commands: list[SvgCommand] = []
    cur = (0.0, 0.0)
    subpath_start = (0.0, 0.0)
    i = 0
    letter: str | None = None
    while i < len(tokens):
        tok = tokens[i]
        if isinstance(tok, str):
            letter = tok
            i += 1
            # implicit lineto after the first moveto pair
            if letter == "M":
                letter_after = "L"
            elif letter == "m":
                letter_after = "l"
            else:
                letter_after = letter
            first_group = True
        elif letter is None:
            raise ArityError("path data must start with a command letter")
        else:
            first_group = False

        if letter is None:
            continue
        active = letter if first_group else letter_after
        upper = active.upper()
        relative = active.islower()
        arity = _ARITY[upper]

        if upper == "Z":
            commands.append(SvgCommand.close_path())
            cur = subpath_start
            letter = None
            continue

        args = []
        for _ in range(arity):
            if i >= len(tokens) or isinstance(tokens[i], str):
                raise ArityError(
                    f"command {active!r} expects {arity} arguments, got {len(args)}")
            args.append(tokens[i])
            i += 1

        if relative:
            args = [a + cur[k % 2] for k, a in enumerate(args)]

        if upper == "M":
            cur = (args[0], args[1])
            subpath_start = cur
            commands.append(SvgCommand.move_to(*cur))
        elif upper == "L":
            cur = (args[0], args[1])
            commands.append(SvgCommand.line_to(*cur))
        elif upper == "C":
            commands.append(SvgCommand.cubic_to(*args))
            cur = (args[4], args[5])
        elif upper == "Q":
            commands.append(_elevate_quadratic(cur, (args[0], args[1]), (args[2], args[3])))
            cur = (args[2], args[3])

    return SvgPath(tuple(commands), id=path_id)


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def serialize_path(path: SvgPath) -> str:
    """Serialize to the canonical absolute, uppercase, space-separated form.

    Round-trips exactly: parse_path_data(serialize_path(p)) == p.
    """
    parts: list[str] = []
    for cmd in path.commands:
        if cmd.kind == CommandKind.MOVE_TO:
            parts += ["M", _fmt(cmd.args[4]), _fmt(cmd.args[5])]
        elif cmd.kind == CommandKind.LINE_TO:
            parts += ["L", _fmt(cmd.args[4]), _fmt(cmd.args[5])]
        elif cmd.kind == CommandKind.CUBIC_TO:
            parts += ["C"] + [_fmt(a) for a in cmd.args]
        elif cmd.kind == CommandKind.CLOSE_PATH:
            parts += ["Z"]
        else:
            raise ValueError(f"cannot serialize control command {cmd.kind.name}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def _local_tag(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_document(xml: str) -> tuple[SvgDocument, int]:
    """Parse an SVG document; only path elements are interpreted.

    Returns the document plus the number of ignored (non-path) elements.
    The viewport comes from the viewBox attribute if present, otherwise
    from width/height with origin (0, 0).
    """
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise XmlParseError(str(exc)) from exc
    if _local_tag(root.tag) != "svg":
        raise XmlParseError(f"root element is {_local_tag(root.tag)!r}, expected 'svg'")

    viewbox = root.get("viewBox")
    if viewbox is not None:
        try:
            x0, y0, w, h = (float(v) for v in viewbox.replace(",", " ").split())
        except ValueError as exc:
            raise XmlParseError(f"bad viewBox {viewbox!r}") from exc
        viewport = Viewport((x0, y0), (w, h))
    else:
        width, height = root.get("width"), root.get("height")
        if width is None or height is None:
            raise MissingViewportError("document has neither viewBox nor width/height")
        try:
            viewport = Viewport((0.0, 0.0), (float(width.rstrip("px")), float(height.rstrip("px"))))
        except ValueError as exc:
            raise XmlParseError(f"bad width/height {width!r}/{height!r}") from exc

    paths: list[SvgPath] = []
    ignored = 0
    for elem in root.iter():
        if elem is root:
            continue
        if _local_tag(elem.tag) == "path" and elem.get("d") is not None:
            paths.append(parse_path_data(elem.get("d"), path_id=elem.get("id")))
        else:
            ignored += 1
    return SvgDocument(tuple(paths), viewport), ignored


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def quantize_coord(value: float, origin: float, extent: float) -> int:
    """Map a coordinate to a bin in [0, 255] with round-half-up."""
    rel = (value - origin) / extent * (N_COORD_BINS - 1)
    b = int(math.floor(rel + 0.5))
    return min(max(b, 0), N_COORD_BINS - 1)


def encode_command(cmd: SvgCommand, viewport: Viewport, clamp: bool = True) -> CommandVector:
    """Quantize a command's used coordinates onto the viewport grid.

    With clamp=True (the default) out-of-viewport coordinates are clipped
    to the boundary. With clamp=False, coordinates further than
    1e-6 * extent outside the viewport raise OutOfViewportError.
    """
    bins = [SENTINEL_BIN] * N_ARG_SLOTS
    (ox, oy), (w, h) = viewport.origin, viewport.extent
    for slot in cmd.used_slots():
        v = cmd.args[slot]
        origin, extent = (ox, w) if slot % 2 == 0 else (oy, h)
        if not clamp:
            tol = 1e-6 * extent
            if v < origin - tol or v > origin + extent + tol:
                raise OutOfViewportError(
                    f"coordinate {v} outside viewport axis [{origin}, {origin + extent}]")
        v = min(max(v, origin), origin + extent)
        bins[slot] = quantize_coord(v, origin, extent)
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


def path_points(path: SvgPath) -> list[tuple[float, float]]:
    """All coordinate pairs used by a path's commands (controls included)."""
    pts = []
    for cmd in path.commands:
        slots = cmd.used_slots()
        for sx in range(0, 6, 2):
            if sx in slots:
                pts.append((cmd.args[sx], cmd.args[sx + 1]))
    return pts
