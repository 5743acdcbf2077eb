"""Deterministic synthetic driving scenes for desk-scale experiments.

Each scene is a small lane network plus lane-following agents, built so
that every input channel carries causal signal:

* lane geometry (straight / arc / fork) determines the future path, with
  curvature onset placed a few meters before the last observed frame, so
  the history hints at the turn while the map resolves it;
* with some probability a slower lead vehicle sits ahead on the main
  agent's lane, forcing a deceleration that mostly happens inside the
  prediction horizon and is only anticipable from the lead's track.

Everything is a pure function of (seed, scene index).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import AgentTrack, SceneRecord, _atomic_write_text, save_dataset

VERTEX_SPACING = 1.0  # meters between lane polyline vertices


@dataclass
class SynthConfig:
    seed: int = 0
    n_scenes: int = 100
    lanes_min: int = 2
    lanes_max: int = 6
    geometry_mix: tuple[float, float, float] = (0.2, 0.4, 0.4)  # straight, arc, fork
    agents_min: int = 1
    agents_max: int = 8
    speed_min: float = 5.0      # m/s
    speed_max: float = 12.0
    speed_noise: float = 0.3    # per-frame speed jitter sigma, m/s
    lead_probability: float = 0.5
    frame_rate: float = 10.0
    n_frames: int = 50          # t_obs + t_pred

    def validate(self) -> None:
        if self.n_scenes <= 0 or self.n_frames <= 0:
            raise ValueError("n_scenes and n_frames must be positive")
        if not (0 < self.speed_min <= self.speed_max):
            raise ValueError("need 0 < speed_min <= speed_max")
        if not (1 <= self.agents_min <= self.agents_max):
            raise ValueError("need 1 <= agents_min <= agents_max")
        if not (1 <= self.lanes_min <= self.lanes_max):
            raise ValueError("need 1 <= lanes_min <= lanes_max")
        if abs(sum(self.geometry_mix) - 1.0) > 1e-9 or min(self.geometry_mix) < 0:
            raise ValueError("geometry_mix must be a probability triple")
        if not 0.0 <= self.lead_probability <= 1.0:
            raise ValueError("lead_probability must lie in [0, 1]")


# -- centerline construction -------------------------------------------------

def _straight(start: np.ndarray, heading: float, length: float) -> np.ndarray:
    n = max(int(np.ceil(length / VERTEX_SPACING)), 1)
    s = np.linspace(0.0, length, n + 1)
    d = np.array([np.cos(heading), np.sin(heading)])
    return start[None, :] + s[:, None] * d[None, :]


def _arc(start: np.ndarray, heading: float, curvature: float, length: float) -> np.ndarray:
    if abs(curvature) < 1e-9:
        return _straight(start, heading, length)
    n = max(int(np.ceil(length / VERTEX_SPACING)), 1)
    s = np.linspace(0.0, length, n + 1)
    h = heading + curvature * s
    x = start[0] + (np.sin(h) - np.sin(heading)) / curvature
    y = start[1] - (np.cos(h) - np.cos(heading)) / curvature
    return np.stack([x, y], axis=1)


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([a, b[1:]], axis=0)


def _cum_lengths(poly: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _points_at(poly: np.ndarray, s: np.ndarray) -> np.ndarray:
    cum = _cum_lengths(poly)
    s = np.clip(s, 0.0, cum[-1])
    return np.stack([np.interp(s, cum, poly[:, 0]), np.interp(s, cum, poly[:, 1])], axis=1)


def _offset_polyline(poly: np.ndarray, offset: float) -> np.ndarray:
    tangents = np.gradient(poly, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    return poly + offset * normals


# -- scene generation ---------------------------------------------------------

def generate_scene(config: SynthConfig, index: int) -> SceneRecord:
    """Build one scene; byte-identical for identical (seed, index)."""
    config.validate()
    rng = np.random.default_rng([config.seed, index])
    dt = 1.0 / config.frame_rate
    n_frames = config.n_frames
    t_obs = 20 if n_frames >= 50 else max(n_frames // 2, 1)

    kind = rng.choice(3, p=np.asarray(config.geometry_mix, dtype=np.float64))
    origin = rng.uniform(-1000.0, 1000.0, size=2)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    v_base = rng.uniform(config.speed_min, config.speed_max)

    n_total_agents = int(rng.integers(config.agents_min, config.agents_max + 1))
    has_lead = bool(rng.random() < config.lead_probability)
    if has_lead:
        n_total_agents = max(n_total_agents, 2)

    # lead-vehicle parameters are drawn unconditionally to keep the stream
    # layout stable across configs that differ only in lead_probability
    v_lead = v_base * rng.uniform(0.3, 0.6)
    f_cross = rng.uniform(16.0, 26.0)
    d_react, a_max = 12.0, 4.0
    gap0 = d_react + (v_base - v_lead) * dt * f_cross

    noise = rng.normal(0.0, config.speed_noise, size=n_frames)

    # simulate the main agent's speed profile (car following when a lead
    # vehicle is closing in, free driving otherwise)
    v = np.empty(n_frames)
    v[0] = v_base
    rel_s = np.zeros(n_frames)
    for t in range(1, n_frames):
        if has_lead:
            gap = (gap0 + v_lead * dt * (t - 1)) - rel_s[t - 1]
            target = v_lead if gap < d_react else v_base
        else:
            target = v_base
        dv = np.clip(target - v[t - 1], -a_max * dt, a_max * dt)
        v[t] = np.clip(v[t - 1] + dv + noise[t] * 1.0, 0.2 * v_base, 1.5 * v_base)
        rel_s[t] = rel_s[t - 1] + v[t] * dt

    onset_gap = rng.uniform(1.0, 6.0)   # meters of curvature already in history
    start_margin = rng.uniform(2.0, 8.0)
    s_frames = start_margin + rel_s  # arc length of the main agent per frame
    route_need = float(s_frames[-1]) + (gap0 + v_lead * dt * n_frames if has_lead else 0.0) + 15.0

    polylines: list[np.ndarray] = []
    if kind == 0:  # straight
        route = _straight(origin, heading, route_need)
        polylines.append(route)
    elif kind == 1:  # arc beginning shortly before the last observed frame
        trans = s_frames[t_obs - 1] - onset_gap
        curv = rng.choice([-1.0, 1.0]) * (1.0 / rng.uniform(20.0, 60.0))
        pre = _straight(origin, heading, trans)
        post = _arc(pre[-1], heading, curv, route_need - trans)
        route = _join(pre, post)
        polylines.append(route)
    else:  # fork: two branches diverge where the history ends
        trans = s_frames[t_obs - 1] - onset_gap
        curv_turn = rng.choice([-1.0, 1.0]) * (1.0 / rng.uniform(20.0, 60.0))
        curv_mild = rng.uniform(-1.0, 1.0) / 300.0
        take_turn = bool(rng.integers(2))
        chosen, other = (curv_turn, curv_mild) if take_turn else (curv_mild, curv_turn)
        pre = _straight(origin, heading, trans)
        route = _join(pre, _arc(pre[-1], heading, chosen, route_need - trans))
        other_branch = _arc(pre[-1], heading, other, max(route_need - trans, 60.0))
        polylines.append(route)
        polylines.append(other_branch)

    n_lanes = int(rng.integers(config.lanes_min, config.lanes_max + 1))
    offsets = [3.5, -3.5, 7.0, -7.0, 10.5, -10.5]
    distractor_lanes = []
    for off in offsets[:max(n_lanes - len(polylines), 0)]:
        lane = _offset_polyline(route, off)
        polylines.append(lane)
        distractor_lanes.append(lane)

    agents = [AgentTrack("agent0", np.arange(n_frames), _points_at(route, s_frames),
                         is_main=True)]

    if has_lead:
        s_lead = start_margin + gap0 + v_lead * dt * np.arange(n_frames)
        agents.append(AgentTrack("agent1", np.arange(n_frames), _points_at(route, s_lead)))

    n_distractors = n_total_agents - len(agents)
    for i in range(n_distractors):
        lanes = distractor_lanes if distractor_lanes else polylines
        lane = lanes[int(rng.integers(len(lanes)))]
        lane_len = _cum_lengths(lane)[-1]
        v_d = rng.uniform(config.speed_min, config.speed_max)
        travel = v_d * dt * (n_frames - 1)
        s0 = rng.uniform(0.0, max(lane_len - travel, 1.0))
        s_d = s0 + v_d * dt * np.arange(n_frames)
        agents.append(AgentTrack(f"agent{len(agents)}", np.arange(n_frames),
                                 _points_at(lane, s_d)))

    return SceneRecord(f"synth-{index:06d}", polylines, agents,
                       frame_rate=config.frame_rate)


def generate_records(config: SynthConfig, first_index: int = 0) -> list[SceneRecord]:
    return [generate_scene(config, first_index + i) for i in range(config.n_scenes)]


def generate_dataset(config: SynthConfig, out_path: str | Path,
                     first_index: int = 0) -> Path:
    """Write n_scenes records as JSONL plus a reproducibility manifest."""
    out_path = Path(out_path)
    save_dataset(generate_records(config, first_index), out_path)
    manifest = {
        "config": asdict(config),
        "seed": config.seed,
        "n_scenes": config.n_scenes,
        "split_ranges": {"all": [first_index, first_index + config.n_scenes]},
    }
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=1) + "\n")
    return out_path
