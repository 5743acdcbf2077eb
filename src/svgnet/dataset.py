"""Scene records: JSONL I/O, agent-frame normalization, and batching.

A record couples map centerline polylines (city frame, meters) with agent
tracks. Normalization moves everything into the main agent's frame: its
last observed position becomes the origin and its recent heading points
along +y. The map is clamped to a square viewport around the origin and
converted to line-command SVG paths.

JSONL record schema (one object per line):
    {"scene_id": str, "frame_rate": number,
     "map_polylines": [[[x, y], ...], ...],
     "agents": [{"agent_id": str, "is_main": bool,
                 "positions": [[frame, x, y], ...]}, ...]}
Every coordinate must be a finite number; a record with any other is a
SchemaError.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import InitVar, dataclass, field, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .svg import (CommandKind, SvgCommand, SvgDocument, SvgPath, Viewport, encode_command,
                  path_points, split_path)


class DatasetError(Exception):
    pass


class SchemaError(DatasetError):
    def __init__(self, line_no: int, fieldname: str, message: str = ""):
        self.line_no = line_no
        self.field = fieldname
        super().__init__(f"line {line_no}: bad or missing field {fieldname!r}"
                         + (f" ({message})" if message else ""))


class InsufficientHistoryError(DatasetError):
    pass


class MissingMainAgentError(DatasetError):
    pass


class BadTimestampGridError(DatasetError):
    pass


class MissingTargetError(DatasetError):
    pass


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

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
        if not np.isfinite(self.xy).all():
            raise ValueError(f"agent {self.agent_id!r}: non-finite coordinates")

    def position_at(self, frame: int) -> np.ndarray | None:
        hits = np.flatnonzero(self.frames == frame)
        return self.xy[hits[0]] if hits.size else None


@dataclass
class SceneRecord:
    scene_id: str
    map_polylines: list[np.ndarray]
    agents: list[AgentTrack]
    frame_rate: float = 10.0

    def __post_init__(self):
        self.map_polylines = [np.asarray(p, dtype=np.float64) for p in self.map_polylines]
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


def _points(value, width: int) -> np.ndarray:
    """value as an (n, width) float64 array of finite numbers; ValueError otherwise."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not numeric: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"expected a list of {width}-number points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate")
    return arr


def _record_from_obj(obj: dict, line_no: int) -> SceneRecord:
    def need(key, typ=None):
        if key not in obj:
            raise SchemaError(line_no, key)
        v = obj[key]
        if typ is not None and not isinstance(v, typ):
            raise SchemaError(line_no, key, f"expected {typ}")
        return v

    scene_id = need("scene_id", str)
    frame_rate = float(need("frame_rate", (int, float)))
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
        try:
            pos = _points(a["positions"], 3)
        except ValueError as exc:
            raise SchemaError(line_no, f"agents[{i}].positions", str(exc)) from exc
        try:
            agents.append(AgentTrack(str(a["agent_id"]), pos[:, 0].astype(np.int64),
                                     pos[:, 1:3], bool(a["is_main"])))
        except ValueError as exc:
            raise SchemaError(line_no, f"agents[{i}]", str(exc)) from exc
    try:
        return SceneRecord(scene_id, polylines, agents, frame_rate)
    except ValueError as exc:
        raise SchemaError(line_no, "agents", str(exc)) from exc


def load_dataset(path: str | Path,
                 errors: list[SchemaError] | None = None) -> Iterator[SceneRecord]:
    """Stream records from a JSONL file in file order.

    With ``errors`` given, malformed lines are collected there and the
    remaining lines are still delivered; otherwise the first bad line
    raises.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(line_no, "<json>", str(exc)) from exc
                yield _record_from_obj(obj, line_no)
            except SchemaError as exc:
                if errors is None:
                    raise
                errors.append(exc)


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def save_dataset(records: Sequence[SceneRecord], path: str | Path) -> int:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r.to_json_obj(), separators=(",", ":")) for r in records]
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass
class IngestConfig:
    t_obs: int = 20
    t_pred: int = 30
    k_heading: int = 5          # frames used to estimate terminal heading
    min_heading_disp: float = 0.1   # below this the rotation falls back to identity
    view_extent: float = 100.0   # square viewport side, meters
    max_commands: int = 30       # split limit for converted lane paths

    def validate(self) -> None:
        if not self.view_extent > 0:
            raise ValueError("ingest view_extent must be positive")
        if self.k_heading < 1:
            raise ValueError("ingest k_heading must be >= 1 (an observed frame before the last)")
        if not self.min_heading_disp >= 0:
            raise ValueError("ingest min_heading_disp must be >= 0")
        if self.max_commands < 2:
            raise ValueError("ingest max_commands must be >= 2")


@dataclass
class NormalizedSample:
    scene_id: str
    scene_svg: SvgDocument
    main_history: np.ndarray            # (t_obs, 2), ends at the origin
    other_histories: list[np.ndarray]   # each (t_obs, 2), zero-filled gaps
    other_valid: list[np.ndarray]       # each (t_obs,) bool
    other_ids: list[str]
    target: np.ndarray | None           # (t_pred, 2) or None
    frame_to_city: np.ndarray           # (2, 3) affine back to city frame


def apply_affine_points(mat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a (2, 3) affine to an (n, 2) point array."""
    return pts @ mat[:, :2].T + mat[:, 2]


def polylines_to_svg(polylines: Sequence[np.ndarray], viewport: Viewport,
                     max_commands: int = 30,
                     id_prefix: str = "lane") -> tuple[SvgDocument, int]:
    """Convert vector polylines to line-command paths inside a viewport.

    One path per polyline (MoveTo then LineTos), split to max_commands,
    with paths wholly outside the viewport dropped. Returns the document
    and a count of skipped degenerate (< 2 point) polylines.
    """
    paths: list[SvgPath] = []
    skipped = 0
    for i, poly in enumerate(polylines):
        poly = np.asarray(poly, dtype=np.float64)
        if poly.ndim != 2 or poly.shape[0] < 2:
            skipped += 1
            continue
        if not any(viewport.contains(x, y) for x, y in poly):
            continue
        cmds = [SvgCommand.move_to(*poly[0])]
        cmds += [SvgCommand.line_to(*pt) for pt in poly[1:]]
        path = SvgPath(tuple(cmds), id=f"{id_prefix}{i}")
        paths.extend(split_path(path, max_commands))
    return SvgDocument(tuple(paths), viewport), skipped


def _heading_rotation(disp: np.ndarray) -> np.ndarray:
    """Rotation mapping the unit displacement onto +y."""
    ux, uy = disp / np.linalg.norm(disp)
    return np.array([[uy, -ux], [ux, uy]], dtype=np.float64)


def normalize_sample(record: SceneRecord, cfg: IngestConfig) -> NormalizedSample:
    """Express a record in the main agent's frame and build its scene SVG."""
    main = record.main_agent
    t_obs, t_pred = cfg.t_obs, cfg.t_pred
    obs_frames = np.arange(t_obs)
    if not np.isin(obs_frames, main.frames).all():
        raise InsufficientHistoryError(
            f"scene {record.scene_id!r}: main agent must be observed on every frame "
            f"0..{t_obs - 1}")

    anchor = main.position_at(t_obs - 1)
    ref = main.position_at(max(t_obs - 1 - cfg.k_heading, 0))
    disp = anchor - ref
    if np.linalg.norm(disp) < cfg.min_heading_disp:
        rot = np.eye(2)
    else:
        rot = _heading_rotation(disp)

    def to_frame(pts: np.ndarray) -> np.ndarray:
        return (pts - anchor) @ rot.T

    frame_to_city = np.empty((2, 3), dtype=np.float64)
    frame_to_city[:, :2] = rot.T
    frame_to_city[:, 2] = anchor

    main_hist = to_frame(np.stack([main.position_at(f) for f in obs_frames]))

    target = None
    pred_frames = np.arange(t_obs, t_obs + t_pred)
    if np.isin(pred_frames, main.frames).all():
        target = to_frame(np.stack([main.position_at(f) for f in pred_frames]))

    others, valids, ids = [], [], []
    for agent in record.agents:
        if agent.is_main:
            continue
        hist = np.zeros((t_obs, 2), dtype=np.float64)
        valid = np.zeros(t_obs, dtype=bool)
        in_window = (agent.frames >= 0) & (agent.frames < t_obs)
        if not in_window.any():
            continue
        frames = agent.frames[in_window]
        hist[frames] = to_frame(agent.xy[in_window])
        valid[frames] = True
        others.append(hist)
        valids.append(valid)
        ids.append(agent.agent_id)

    half = cfg.view_extent / 2.0
    viewport = Viewport((-half, -half), (cfg.view_extent, cfg.view_extent))
    clamped = []
    for poly in record.map_polylines:
        pts = to_frame(poly)
        if not ((np.abs(pts[:, 0]) <= half) & (np.abs(pts[:, 1]) <= half)).any():
            continue
        pts = np.clip(pts, -half, half)
        # boundary clamping creates runs of identical vertices; collapse them
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = (np.abs(np.diff(pts, axis=0)) > 1e-12).any(axis=1)
        clamped.append(pts[keep])
    scene_svg, _ = polylines_to_svg(clamped, viewport, cfg.max_commands)

    return NormalizedSample(
        scene_id=record.scene_id, scene_svg=scene_svg, main_history=main_hist,
        other_histories=others, other_valid=valids, other_ids=ids,
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

    def take(self, indices) -> "Batch":
        idx = np.asarray(indices)

        def pick(value):
            if value is None:
                return None
            return [value[i] for i in idx] if isinstance(value, list) else value[idx]
        return Batch(**{f.name: pick(getattr(self, f.name)) for f in fields(self)})


def make_batch(samples: Sequence[NormalizedSample], n_paths: int, n_commands: int,
               n_agents: int) -> Batch:
    """Assemble padded tensors; excess paths/agents are dropped farthest-first."""
    if not samples:
        raise ValueError("cannot batch zero samples")
    missing = [s.scene_id for s in samples if s.target is None]
    if 0 < len(missing) < len(samples):
        raise MissingTargetError(f"scene {missing[0]!r} has no target, unlike others in its batch")
    b = len(samples)
    t_obs = samples[0].main_history.shape[0]
    kinds = np.full((b, n_paths, n_commands), int(CommandKind.PAD), dtype=np.int16)
    args = np.full((b, n_paths, n_commands, 6), -1, dtype=np.int16)
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
        paths = list(s.scene_svg.paths)
        if len(paths) > n_paths:
            dist = [min(x * x + y * y for x, y in path_points(p)) for p in paths]
            order = np.argsort(dist, kind="stable")[:n_paths]
            paths = [paths[j] for j in sorted(order)]
        pids = []
        for j, p in enumerate(paths):
            n_c = min(len(p.commands), n_commands)
            for k in range(n_c):
                vec = encode_command(p.commands[k], s.scene_svg.viewport)
                kinds[i, j, k] = vec.kind_index
                args[i, j, k] = vec.arg_bins
            path_mask[i, j] = 1.0
            command_mask[i, j, :n_c] = 1.0
            pids.append(p.id)

        main_hist[i] = s.main_history.reshape(-1)
        frame_to_city[i] = s.frame_to_city
        if has_target:
            targets[i] = s.target.reshape(-1)

        order = range(len(s.other_histories))
        if len(s.other_histories) > n_agents:
            def last_dist(idx: int) -> float:
                valid = np.flatnonzero(s.other_valid[idx])
                pt = s.other_histories[idx][valid[-1]]
                return float(pt @ pt)
            order = sorted(sorted(order, key=last_dist)[:n_agents])
        aids = []
        for slot, idx in enumerate(order):
            agent_hist[i, slot] = s.other_histories[idx].reshape(-1)
            agent_mask[i, slot] = 1.0
            aids.append(s.other_ids[idx])

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


def _import_one_csv(csv_path: Path, city_maps: dict, t_obs: int, t_pred: int,
                    map_box: float) -> SceneRecord:
    rows = []
    with open(csv_path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise SchemaError(0, ",".join(missing), f"missing CSV columns in {csv_path.name}")

        def number(row: dict, column: str) -> float:
            try:
                value = float(row[column])
            except (TypeError, ValueError):
                value = float("nan")
            if not np.isfinite(value):
                raise SchemaError(reader.line_num, column,
                                  f"{row[column]!r} in {csv_path.name} is not a finite number")
            return value

        for row in reader:
            rows.append((number(row, "TIMESTAMP"), row["TRACK_ID"], row["OBJECT_TYPE"],
                         number(row, "X"), number(row, "Y"), row["CITY_NAME"]))
    if not rows:
        raise MissingMainAgentError(f"{csv_path.name}: empty sequence")

    stamps = np.array(sorted({r[0] for r in rows}))
    if stamps.size < 2:
        raise BadTimestampGridError(f"{csv_path.name}: need at least two timestamps")
    dts = np.diff(stamps)
    dt = float(np.median(dts))
    if dt <= 0 or (np.abs(dts - dt) > 0.10 * dt).any():
        raise BadTimestampGridError(f"{csv_path.name}: non-uniform sampling")
    frame_of = {t: int(round((t - stamps[0]) / dt)) for t in stamps}
    if len(set(frame_of.values())) < stamps.size:
        raise BadTimestampGridError(f"{csv_path.name}: two timestamps round to one frame")
    n_frames = t_obs + t_pred

    tracks: dict[str, dict] = {}
    for t, track_id, obj_type, x, y, city in rows:
        frame = frame_of[t]
        if frame >= n_frames:
            continue
        rec = tracks.setdefault(track_id, {"type": obj_type, "pos": {}})
        rec["pos"][frame] = (x, y)

    agents = []
    main_xy = None
    for track_id, rec in sorted(tracks.items()):
        frames = np.array(sorted(rec["pos"]), dtype=np.int64)
        xy = np.array([rec["pos"][f] for f in frames], dtype=np.float64)
        is_main = rec["type"] == "AGENT"
        agents.append(AgentTrack(track_id, frames, xy, is_main))
        if is_main:
            anchor_frame = frames[frames <= t_obs - 1]
            main_xy = xy[len(anchor_frame) - 1] if len(anchor_frame) else xy[-1]
    if sum(a.is_main for a in agents) != 1:
        raise MissingMainAgentError(
            f"{csv_path.name}: expected exactly one AGENT track, "
            f"found {sum(a.is_main for a in agents)}")

    city = rows[0][5]
    polylines = []
    half = map_box / 2.0
    for arr in city_maps.get(city, []):
        if ((np.abs(arr[:, 0] - main_xy[0]) <= half) &
                (np.abs(arr[:, 1] - main_xy[1]) <= half)).any():
            polylines.append(arr)

    rate = 1.0 / dt
    return SceneRecord(csv_path.stem, polylines, agents, frame_rate=rate)


def _load_city_maps(path: Path) -> dict[str, list[np.ndarray]]:
    """City name -> centerline polylines, each an (n, 2) array of finite floats."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
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
                city_maps[city].append(_points(poly, 2))
            except ValueError as exc:
                raise DatasetError(f"{path.name}: bad polyline {city}[{i}] ({exc})") from exc
    return city_maps


def import_argoverse_csv(csv_path: str | Path, map_json_path: str | Path,
                         out_path: str | Path, t_obs: int = 20, t_pred: int = 30,
                         map_box: float = 200.0) -> int:
    """Convert motion-forecasting CSV sequences plus a city map JSON to JSONL.

    ``csv_path`` may be one CSV file or a directory of them; each file
    becomes one record. The map JSON maps city name to a list of
    centerline polylines; polylines are kept if they touch a map_box-sized
    square around the main agent's last observed position.
    """
    csv_path = Path(csv_path)
    city_maps = _load_city_maps(Path(map_json_path))
    files = sorted(csv_path.glob("*.csv")) if csv_path.is_dir() else [csv_path]
    records = [_import_one_csv(f, city_maps, t_obs, t_pred, map_box) for f in files]
    return save_dataset(records, out_path)
