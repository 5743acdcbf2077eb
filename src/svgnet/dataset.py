"""Scene records: JSONL I/O, agent-frame normalization, and batching.

A record couples map centerline polylines (city frame, meters) with agent
tracks. Normalization moves everything into the main agent's frame: its
last observed position becomes the origin and its recent heading points
along +y. The map is clamped to the square view of side VIEW_EXTENT
centred on the origin and stored as arrays of chunk vertices, each chunk
one line-command SVG path (a MoveTo, then LineTos). With mc =
max_commands, a polyline of n vertices splits into chunks k = 0, 1, ...
covering vertices [k*(mc-1), k*(mc-1)+mc) cut at n, so a chunk starts on
the last vertex of the one before. The heading is the displacement
over the K_HEADING frames up to the last observed one; when it is
shorter than MIN_HEADING_DISP, the frame is not rotated.
make_batch quantizes the vertex arrays directly, and visualize writes each
chunk's path data from them.

JSONL record schema (one object per line):
    {"scene_id": str, "frame_rate": number,
     "map_polylines": [[[x, y], ...], ...],
     "agents": [{"agent_id": str, "is_main": bool,
                 "positions": [[frame, x, y], ...]}, ...]}
Every map or agent x, y is a number within MAX_COORD = 1e8 m of 0: above
any map projection's range (UTM northings stay under 1e7 m), and small
enough that every agent-frame value stays finite in float32. Every point
list (a polyline, an agent's positions) is non-empty. frame_rate is a
finite positive number, agent_id a string and is_main a boolean. A
scene_id or agent_id holds only characters of XML 1.0's Char production,
so every artifact (the SVG, the CSV, the JSONL) can carry it: no
U+0000-U+0008, U+000B, U+000C, U+000E-U+001F, lone surrogate
U+D800-U+DFFF, U+FFFE or U+FFFF; tab, LF, CR and all other text are
fine. Frame numbers are integers within 2**53 of 0 and strictly
increasing per agent, and exactly one agent is the main one. A line that
is not UTF-8 JSON or breaks any of this is a SchemaError.
_record_from_obj states these rules once: load_dataset reads each line
through it, and save_dataset applies the loader's check to every record
before it writes. The coordinate rule is checked by AgentTrack and
SceneRecord themselves, so a record built in code with a coordinate out
of range is a ValueError at construction.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from dataclasses import InitVar, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

# encode_command and split_path are not called here: they are the tests' per-path
# references, and the benchmark's tracer patches these two names
from .svg import (N_ARG_SLOTS, SENTINEL_BIN, CommandKind, encode_command,  # noqa: F401
                  quantize_coords, split_path)


class DatasetError(Exception):
    pass


class SchemaError(DatasetError):
    def __init__(self, line_no: int, fieldname: str, message: str = ""):
        self.line_no = line_no
        self.field = fieldname
        self.message = message
        super().__init__(f"line {line_no}: bad or missing field {fieldname!r}"
                         + (f" ({message})" if message else ""))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

MAX_COORD = 1e8


def _coord_error(xy: np.ndarray) -> str | None:
    """Why xy breaks the coordinate rule, or None if every value is within
    MAX_COORD of 0."""
    # NaN fails every comparison, so this one test rejects NaN, inf and out-of-range values
    if (np.abs(xy) <= MAX_COORD).all():
        return None
    return "non-finite coordinate" if not np.isfinite(xy).all() else "coordinate beyond ±1e8 m"


@dataclass
class AgentTrack:
    agent_id: str
    frames: np.ndarray      # (n,) int64, strictly increasing
    xy: np.ndarray          # (n, 2) float64
    is_main: bool = False

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.int64)
        self.xy = np.asarray(self.xy, dtype=np.float64)
        if self.frames.ndim != 1 or self.xy.shape != (self.frames.size, 2):
            raise ValueError("frames must be (n,), xy must be (n, 2)")
        if self.frames.size > 1 and not (np.diff(self.frames) > 0).all():
            raise ValueError(f"agent {self.agent_id!r}: frame indices not strictly increasing")
        if why := _coord_error(self.xy):
            raise ValueError(why)


@dataclass
class SceneRecord:
    scene_id: str
    map_polylines: list[np.ndarray]
    agents: list[AgentTrack]
    frame_rate: float = 10.0

    def __post_init__(self):
        self.map_polylines = [np.asarray(p, dtype=np.float64) for p in self.map_polylines]
        for i, p in enumerate(self.map_polylines):
            if p.ndim != 2 or p.shape[1:] != (2,) or not len(p):
                raise ValueError(f"map polyline {i}: expected a non-empty (n, 2) array, "
                                 f"got shape {p.shape}")
            if why := _coord_error(p):
                raise ValueError(f"map polyline {i}: {why}")
        self.frame_rate = float(self.frame_rate)
        mains = [a for a in self.agents if a.is_main]
        if len(mains) != 1:
            raise ValueError(f"scene {self.scene_id!r}: expected exactly 1 main agent, "
                             f"got {len(mains)}")

    @property
    def main_agent(self) -> AgentTrack:
        return next(a for a in self.agents if a.is_main)

    def to_json_obj(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "frame_rate": self.frame_rate,
            "map_polylines": [p.tolist() for p in self.map_polylines],
            "agents": [
                {"agent_id": a.agent_id, "is_main": a.is_main,
                 "positions": [[int(f), float(x), float(y)]
                               for f, (x, y) in zip(a.frames, a.xy)]}
                for a in self.agents
            ],
        }


# the characters outside XML 1.0's Char production that a Python str can hold
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _points(value, width: int) -> np.ndarray:
    """value as a non-empty (n, width) float64 array; ValueError otherwise.

    The x, y columns are checked by the record constructors."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not numeric: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"expected a non-empty list of {width}-number points, "
                         f"got shape {arr.shape}")
    return arr


def _record_from_obj(obj, line_no: int) -> SceneRecord:
    """The record a JSON value describes, or a SchemaError naming the first bad field."""
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "<record>", "expected a JSON object")

    def need(key, typ=None):
        if key not in obj:
            raise SchemaError(line_no, key)
        v = obj[key]
        if typ is not None and not isinstance(v, typ):
            raise SchemaError(line_no, key, f"expected {typ}")
        return v

    def check_id(value: str, fieldname: str) -> None:
        if bad := _NOT_XML_CHAR.search(value):
            raise SchemaError(line_no, fieldname,
                              f"character U+{ord(bad.group()):04X} is not allowed in an id")

    scene_id, frame_rate = need("scene_id", str), need("frame_rate")
    check_id(scene_id, "scene_id")
    # a bool is an int to Python; the upper bound also rejects inf and NaN
    if (not isinstance(frame_rate, (int, float)) or isinstance(frame_rate, bool)
            or not 0 < frame_rate <= sys.float_info.max):
        raise SchemaError(line_no, "frame_rate", "expected a finite positive number")
    polys_raw = need("map_polylines", list)
    agents_raw = need("agents", list)

    polylines = []
    for i, p in enumerate(polys_raw):
        try:
            polylines.append(_points(p, 2))
        except ValueError as exc:
            raise SchemaError(line_no, f"map_polylines[{i}]", str(exc)) from exc

    agents = []
    for i, a in enumerate(agents_raw):
        if not isinstance(a, dict):
            raise SchemaError(line_no, f"agents[{i}]")
        for key in ("agent_id", "is_main", "positions"):
            if key not in a:
                raise SchemaError(line_no, f"agents[{i}].{key}")
        for key, typ in (("agent_id", str), ("is_main", bool)):
            if not isinstance(a[key], typ):
                raise SchemaError(line_no, f"agents[{i}].{key}", f"expected {typ.__name__}")
        check_id(a["agent_id"], f"agents[{i}].agent_id")
        try:
            pos = _points(a["positions"], 3)
            # a whole number up to 2**53 converts to int64 exactly; NaN and inf are not
            if not ((pos[:, 0] == np.floor(pos[:, 0])) & (np.abs(pos[:, 0]) <= 2 ** 53)).all():
                raise ValueError("frame numbers must be integers within 2**53 of 0")
            # the track checks that frames increase and that x, y are in range
            agents.append(AgentTrack(a["agent_id"], pos[:, 0].astype(np.int64),
                                     pos[:, 1:3], a["is_main"]))
        except ValueError as exc:
            raise SchemaError(line_no, f"agents[{i}].positions", str(exc)) from exc
    try:
        return SceneRecord(scene_id, polylines, agents, frame_rate)
    except ValueError as exc:
        # the constructor checks each polyline's coordinates, then the main agent
        bad = [(i, why) for i, p in enumerate(polylines) if (why := _coord_error(p))]
        if bad:
            raise SchemaError(line_no, f"map_polylines[{bad[0][0]}]", bad[0][1]) from exc
        raise SchemaError(line_no, "agents", str(exc)) from exc


def load_dataset(path: str | Path,
                 errors: list[SchemaError] | None = None) -> Iterator[SceneRecord]:
    """Stream records from a JSONL file in file order.

    A line that is not UTF-8 or not JSON is a bad line like any other. With
    ``errors`` given, malformed lines are collected there and the
    remaining lines are still delivered; otherwise the first bad line
    raises.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                try:
                    line = raw.decode("utf-8")
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise SchemaError(line_no, "<json>", str(exc)) from exc
                yield _record_from_obj(obj, line_no)
            except SchemaError as exc:
                if errors is None:
                    raise
                errors.append(exc)


def _atomic_write(path: Path, chunks: Iterable) -> None:
    """Write each buffer of ``chunks`` in turn to a temp file, then rename it to ``path``.

    Every file the package writes goes through here, and the parent directory
    is created first. ``chunks`` may be a generator, so the caller never holds
    the whole payload; if it raises, neither ``path`` nor the temp file is left.
    The file gets the mode that ``open(path, "w")`` gives, 0o666 less the umask.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, [text.encode("utf-8")])


def _atomic_write_json(path: str | Path, obj) -> None:
    """obj as indented JSON; a NaN or inf in it is a ValueError, never a bare NaN."""
    _atomic_write_text(Path(path), json.dumps(obj, indent=1, allow_nan=False) + "\n")


def save_dataset(records: Sequence[SceneRecord], path: str | Path) -> int:
    """Write records as JSONL; one that load_dataset would reject is a DatasetError.

    Each record's JSON object goes through the loader's check first. The
    error names the scene and the field, and no file is written.
    """
    path = Path(path)
    lines = []
    for line_no, r in enumerate(records, start=1):
        obj = r.to_json_obj()
        try:
            _record_from_obj(obj, line_no)
        except SchemaError as exc:
            raise DatasetError(f"scene {r.scene_id!r}: cannot save field {exc.field!r} "
                               f"({exc.message})") from None
        lines.append(json.dumps(obj, separators=(",", ":"), allow_nan=False))
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

VIEW_EXTENT = 100.0     # side of the square view around the agent, meters
K_HEADING = 5           # frames before the last observed one that fix the heading
MIN_HEADING_DISP = 0.1  # meters; a shorter displacement leaves the frame unrotated


@dataclass(frozen=True)
class IngestConfig:
    t_obs: int = 20
    t_pred: int = 30
    max_commands: int = 30       # split limit for converted lane paths

    def __post_init__(self) -> None:
        if min(self.t_obs, self.t_pred) < 1:
            raise ValueError("ingest t_obs and t_pred must be positive")
        if self.max_commands < 2:
            raise ValueError("ingest max_commands must be >= 2")


@dataclass(eq=False)
class LaneChunks:
    """A scene's lanes as chunk vertices in the agent frame: chunk k is
    vertices[offsets[k]:offsets[k + 1]], a MoveTo then LineTos, named ids[k].
    Every vertex lies in the square view [-VIEW_EXTENT/2, VIEW_EXTENT/2]^2."""

    vertices: np.ndarray    # (n_vertices, 2) float64
    offsets: np.ndarray     # (n_chunks + 1,) int64
    ids: list[str]          # lane{i}, or lane{i}#{k} for each chunk of a split lane

    @property
    def paths(self) -> list[np.ndarray]:
        """Each chunk's (n, 2) vertices, as views of ``vertices``."""
        bounds = self.offsets.tolist()
        return [self.vertices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class NormalizedSample:
    scene_id: str
    scene_svg: LaneChunks
    main_history: np.ndarray            # (t_obs, 2), ends at the origin
    other_histories: list[np.ndarray]   # each (t_obs, 2), zero-filled gaps
    other_valid: list[np.ndarray]       # each (t_obs,) bool
    other_ids: list[str]
    target: np.ndarray | None           # (t_pred, 2) or None
    frame_to_city: np.ndarray           # (2, 3) affine back to city frame


def apply_affine_points(mat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a (2, 3) affine to an (n, 2) point array."""
    return pts @ mat[:, :2].T + mat[:, 2]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index ranges [start, start + length) of each pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _lane_chunks(polylines: list[np.ndarray], to_frame, cfg: IngestConfig) -> LaneChunks:
    """Clamp the map polylines to the view and split them by the module
    docstring's rule. Polylines with no vertex in view, or under two once clamped
    and de-duplicated, are dropped. A SceneRecord's polylines are non-empty, as
    reduceat needs."""
    half, mc = VIEW_EXTENT / 2.0, cfg.max_commands
    lanes = np.arange(len(polylines))
    lengths = np.array([len(p) for p in polylines], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    pts = np.concatenate([to_frame(p) for p in polylines] or [np.empty((0, 2))])
    in_view = np.logical_or.reduceat((np.abs(pts) <= half).all(axis=1), starts)
    pts = np.clip(pts, -half, half)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (np.abs(np.diff(pts, axis=0)) > 1e-12).any(axis=1)
    keep[starts] = True
    keep &= np.repeat(in_view, lengths)
    counts = np.add.reduceat(keep, starts, dtype=np.int64)
    first = (np.cumsum(counts) - counts)[counts >= 2]
    lanes, n = lanes[counts >= 2], counts[counts >= 2]
    n_chunks = (n - 2) // (mc - 1) + 1
    owner = np.repeat(np.arange(n.size), n_chunks)
    chunk_start = _ranges(np.zeros_like(n_chunks), n_chunks) * (mc - 1)
    chunk_len = np.minimum(mc, n[owner] - chunk_start)
    ids = [f"lane{i}" if m == 1 else f"lane{i}#{k}"
           for i, m in zip(lanes.tolist(), n_chunks.tolist()) for k in range(m)]
    return LaneChunks(vertices=pts[keep][_ranges(first[owner] + chunk_start, chunk_len)],
                      offsets=np.concatenate([[0], np.cumsum(chunk_len)]), ids=ids)


def _heading_rotation(disp: np.ndarray) -> np.ndarray:
    """Rotation mapping the unit displacement onto +y."""
    ux, uy = disp / np.linalg.norm(disp)
    return np.array([[uy, -ux], [ux, uy]], dtype=np.float64)


def normalize_sample(record: SceneRecord, cfg: IngestConfig) -> NormalizedSample:
    """Express a record in the main agent's frame and split its lanes into chunks.
    cfg was checked when it was built."""
    main = record.main_agent
    t_obs, t_pred = cfg.t_obs, cfg.t_pred
    wanted = np.arange(t_obs + t_pred)
    at = np.searchsorted(main.frames, wanted)
    # -1 after the last frame: no wanted frame matches it
    found = np.append(main.frames, -1)[at] == wanted
    if not found[:t_obs].all():
        raise DatasetError(f"scene {record.scene_id!r}: main agent must be observed on "
                           f"every frame 0..{t_obs - 1}")

    anchor = main.xy[at[t_obs - 1]]
    ref = main.xy[at[max(t_obs - 1 - K_HEADING, 0)]]
    disp = anchor - ref
    rot = np.eye(2) if np.linalg.norm(disp) < MIN_HEADING_DISP else _heading_rotation(disp)

    def to_frame(pts: np.ndarray) -> np.ndarray:
        return (pts - anchor) @ rot.T

    frame_to_city = np.column_stack([rot.T, anchor])

    main_hist = to_frame(main.xy[at[:t_obs]])
    target = to_frame(main.xy[at[t_obs:]]) if found[t_obs:].all() else None

    others, valids, ids = [], [], []
    for agent in record.agents:
        in_window = (agent.frames >= 0) & (agent.frames < t_obs)
        if agent.is_main or not in_window.any():
            continue
        hist, valid = np.zeros((t_obs, 2)), np.zeros(t_obs, dtype=bool)
        hist[agent.frames[in_window]] = to_frame(agent.xy[in_window])
        valid[agent.frames[in_window]] = True
        others.append(hist)
        valids.append(valid)
        ids.append(agent.agent_id)

    return NormalizedSample(
        scene_id=record.scene_id, scene_svg=_lane_chunks(record.map_polylines, to_frame, cfg),
        main_history=main_hist, other_histories=others, other_valid=valids, other_ids=ids,
        target=target, frame_to_city=frame_to_city)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Padded, masked, quantized arrays for one model invocation."""

    command_kinds: np.ndarray     # (B, N_P, N_C) int16, Pad where masked
    command_args: np.ndarray      # (B, N_P, N_C, 6) int16, -1 sentinels
    path_mask: np.ndarray         # (B, N_P) float32
    command_mask: np.ndarray      # (B, N_P, N_C) float32
    main_history: np.ndarray      # (B, 2 * t_obs) float64, agent frame
    agent_histories: np.ndarray   # (B, N_A, 2 * t_obs) float64
    agent_mask: np.ndarray        # (B, N_A) float32
    targets: np.ndarray | None    # (B, 2 * t_pred) float64
    frame_to_city: np.ndarray     # (B, 2, 3) float64
    scene_ids: list[str] = field(default_factory=list)
    path_ids: list[list] = field(default_factory=list)
    agent_ids: list[list] = field(default_factory=list)
    # not stored: nothing read per-frame agent validity, but the benchmark's
    # tests still build a Batch with this keyword; drop it once they stop
    agent_frame_mask: InitVar[np.ndarray | None] = None

    def __len__(self) -> int:
        return self.command_kinds.shape[0]


def _nearest(sq_dist: np.ndarray, cap: int) -> np.ndarray:
    """Indices of the cap smallest squared distances, in index order; a tie
    keeps the lower index."""
    return np.sort(np.argsort(sq_dist, kind="stable")[:cap])


def make_batch(samples: Sequence[NormalizedSample], n_paths: int, n_commands: int,
               n_agents: int) -> Batch:
    """Assemble padded tensors; excess paths/agents are dropped farthest-first."""
    if not samples:
        raise ValueError("cannot batch zero samples")
    missing = [s.scene_id for s in samples if s.target is None]
    if 0 < len(missing) < len(samples):
        raise DatasetError(f"scene {missing[0]!r} has no target, unlike others in its batch")
    b = len(samples)
    t_obs = samples[0].main_history.shape[0]
    kinds = np.full((b, n_paths, n_commands), int(CommandKind.PAD), dtype=np.int16)
    args = np.full((b, n_paths, n_commands, N_ARG_SLOTS), SENTINEL_BIN, dtype=np.int16)
    path_mask = np.zeros((b, n_paths), dtype=np.float32)
    command_mask = np.zeros((b, n_paths, n_commands), dtype=np.float32)
    main_hist = np.zeros((b, 2 * t_obs), dtype=np.float64)
    agent_hist = np.zeros((b, n_agents, 2 * t_obs), dtype=np.float64)
    agent_mask = np.zeros((b, n_agents), dtype=np.float32)
    frame_to_city = np.zeros((b, 2, 3), dtype=np.float64)
    has_target = not missing
    targets = np.zeros((b, 2 * samples[0].target.shape[0]), dtype=np.float64) if has_target else None

    scene_ids, all_path_ids, all_agent_ids = [], [], []
    for i, s in enumerate(samples):
        lanes = s.scene_svg
        starts, lengths = lanes.offsets[:-1], np.diff(lanes.offsets)
        kept = np.arange(starts.size)
        if kept.size > n_paths:
            x, y = lanes.vertices.T
            kept = _nearest(np.minimum.reduceat(x * x + y * y, starts), n_paths)
        n_c = np.minimum(lengths[kept], n_commands)
        row = np.repeat(np.arange(kept.size), n_c)
        cmd = _ranges(np.zeros_like(n_c), n_c)
        kinds[i, row, cmd] = np.where(cmd == 0, int(CommandKind.MOVE_TO),
                                       int(CommandKind.LINE_TO))
        args[i, row, cmd, 4:] = quantize_coords(lanes.vertices[starts[kept][row] + cmd],
                                                VIEW_EXTENT)
        path_mask[i, :kept.size] = 1.0
        command_mask[i, row, cmd] = 1.0
        pids = [lanes.ids[j] for j in kept.tolist()]

        main_hist[i] = s.main_history.reshape(-1)
        frame_to_city[i] = s.frame_to_city
        if has_target:
            targets[i] = s.target.reshape(-1)

        order = np.arange(len(s.other_ids))
        if order.size > n_agents:
            last = [h[np.flatnonzero(v)[-1]] for h, v in zip(s.other_histories, s.other_valid)]
            order = _nearest(np.array([xy @ xy for xy in last]), n_agents)
        for slot, j in enumerate(order):
            agent_hist[i, slot] = s.other_histories[j].reshape(-1)
        agent_mask[i, :order.size] = 1.0
        aids = [s.other_ids[j] for j in order]

        scene_ids.append(s.scene_id)
        all_path_ids.append(pids)
        all_agent_ids.append(aids)

    return Batch(command_kinds=kinds, command_args=args, path_mask=path_mask,
                 command_mask=command_mask, main_history=main_hist, agent_histories=agent_hist,
                 agent_mask=agent_mask, targets=targets,
                 frame_to_city=frame_to_city, scene_ids=scene_ids, path_ids=all_path_ids,
                 agent_ids=all_agent_ids)


def concat_batches(batches: Sequence[Batch]) -> Batch:
    """Stack single-or-multi sample batches built with identical caps.

    The result has targets only when every input batch has them.
    """
    def join(values):
        if any(v is None for v in values):
            return None
        return sum(values, []) if isinstance(values[0], list) else np.concatenate(values)
    return Batch(**{f.name: join([getattr(b, f.name) for b in batches]) for f in fields(Batch)})


# ---------------------------------------------------------------------------
# Argoverse-style CSV import
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("TIMESTAMP", "TRACK_ID", "OBJECT_TYPE", "X", "Y", "CITY_NAME")
ARGOVERSE_T_OBS, ARGOVERSE_T_PRED = 20, 30   # Argoverse 1's frames at 10 Hz
ARGOVERSE_MAP_BOX = 200.0   # m; a record keeps the lanes touching this square


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path.name}: not UTF-8 text ({exc})") from exc


def _import_one_csv(csv_path: Path, city_maps: dict) -> SceneRecord:
    rows = []
    reader = csv.DictReader(io.StringIO(_read_utf8(csv_path)))
    missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise SchemaError(0, ",".join(missing), f"missing CSV columns in {csv_path.name}")

    def number(row: dict, column: str) -> float:
        try:
            value = float(row[column])
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise SchemaError(reader.line_num, column,
                              f"{row[column]!r} in {csv_path.name} is not a finite number")
        return value

    for row in reader:
        # a row shorter than the header leaves its last columns None
        if short := [c for c in reader.fieldnames if row[c] is None]:
            raise SchemaError(reader.line_num, short[0], f"missing value in {csv_path.name}")
        rows.append((number(row, "TIMESTAMP"), row["TRACK_ID"], row["OBJECT_TYPE"],
                     number(row, "X"), number(row, "Y"), row["CITY_NAME"]))
    if not rows:
        raise DatasetError(f"{csv_path.name}: empty sequence")

    stamps = np.array(sorted({r[0] for r in rows}))
    if stamps.size < 2:
        raise DatasetError(f"{csv_path.name}: need at least two timestamps")
    dts = np.diff(stamps)
    dt = float(np.median(dts))
    if dt <= 0 or (np.abs(dts - dt) > 0.10 * dt).any():
        raise DatasetError(f"{csv_path.name}: non-uniform sampling")
    frame_of = {t: int(round((t - stamps[0]) / dt)) for t in stamps}
    if len(set(frame_of.values())) < stamps.size:
        raise DatasetError(f"{csv_path.name}: two timestamps round to one frame")
    n_frames = ARGOVERSE_T_OBS + ARGOVERSE_T_PRED

    tracks: dict[str, dict] = {}
    for t, track_id, obj_type, x, y, city in rows:
        frame = frame_of[t]
        if frame >= n_frames:
            continue
        rec = tracks.setdefault(track_id, {"type": obj_type, "pos": {}})
        if rec["type"] != obj_type:
            raise DatasetError(f"{csv_path.name}: track {track_id!r} is both "
                               f"{rec['type']!r} and {obj_type!r}")
        if frame in rec["pos"]:
            raise DatasetError(f"{csv_path.name}: track {track_id!r} has two rows at "
                               f"timestamp {t!r}")
        rec["pos"][frame] = (x, y)

    agents = []
    main_xy = None
    for track_id, rec in sorted(tracks.items()):
        frames = np.array(sorted(rec["pos"]), dtype=np.int64)
        xy = np.array([rec["pos"][f] for f in frames], dtype=np.float64)
        is_main = rec["type"] == "AGENT"
        try:
            agents.append(AgentTrack(track_id, frames, xy, is_main))
        except ValueError as exc:
            raise DatasetError(f"{csv_path.name}: track {track_id!r}: {exc}") from exc
        if is_main:
            anchor_frame = frames[frames <= ARGOVERSE_T_OBS - 1]
            main_xy = xy[len(anchor_frame) - 1] if len(anchor_frame) else xy[-1]
    if sum(a.is_main for a in agents) != 1:
        raise DatasetError(
            f"{csv_path.name}: expected exactly one AGENT track, "
            f"found {sum(a.is_main for a in agents)}")

    cities = sorted({r[5] for r in rows})
    if len(cities) > 1:
        raise DatasetError(f"{csv_path.name}: rows name more than one city: {cities}")
    if cities[0] not in city_maps:
        raise DatasetError(f"{csv_path.name}: city {cities[0]!r} is not in the map JSON, "
                           f"which names {sorted(city_maps)}")
    polylines = []
    half = ARGOVERSE_MAP_BOX / 2.0
    for arr in city_maps[cities[0]]:
        if ((np.abs(arr[:, 0] - main_xy[0]) <= half) &
                (np.abs(arr[:, 1] - main_xy[1]) <= half)).any():
            polylines.append(arr)

    rate = 1.0 / dt
    return SceneRecord(csv_path.stem, polylines, agents, frame_rate=rate)


def _load_city_maps(path: Path) -> dict[str, list[np.ndarray]]:
    """City name -> centerline polylines, each an (n, 2) array within MAX_COORD of 0."""
    try:
        raw = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path.name}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise DatasetError(f"{path.name}: expected an object mapping city name to polylines")
    city_maps = {}
    for city, polys in raw.items():
        if not isinstance(polys, list):
            raise DatasetError(f"{path.name}: {city!r} is not a list of polylines")
        city_maps[city] = []
        for i, poly in enumerate(polys):
            try:
                arr = _points(poly, 2)
                if why := _coord_error(arr):
                    raise ValueError(why)
            except ValueError as exc:
                raise DatasetError(f"{path.name}: bad polyline {city}[{i}] ({exc})") from exc
            city_maps[city].append(arr)
    return city_maps


def import_argoverse_csv(csv_path: str | Path, map_json_path: str | Path,
                         out_path: str | Path) -> int:
    """Convert motion-forecasting CSV sequences plus a city map JSON to JSONL.

    ``csv_path`` may be one CSV file or a directory of them; each file
    becomes one record of its first 20 + 30 frames, whose AGENT track is the
    main agent. The map JSON maps city name to a list of centerline polylines.
    A row shorter than the header is a SchemaError. A track with two OBJECT_TYPEs
    or two rows at one timestamp is a DatasetError, and so are rows naming two
    cities or a city the map JSON lacks, and a directory without a CSV file
    (nothing is written then). Polylines are kept if they touch the
    200 m square (ARGOVERSE_MAP_BOX) around the main agent's last observed position.
    """
    csv_path = Path(csv_path)
    files = sorted(csv_path.glob("*.csv")) if csv_path.is_dir() else [csv_path]
    if not files:
        raise DatasetError(f"{csv_path}: directory holds no *.csv file")
    city_maps = _load_city_maps(Path(map_json_path))
    records = [_import_one_csv(f, city_maps) for f in files]
    return save_dataset(records, out_path)
