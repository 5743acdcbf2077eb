"""Attention visualization: render a scene and its prediction as standalone SVG.

Color scheme: map paths gray, other agents dark blue, main-agent history
yellow, ground truth red, prediction green. Attention over map paths and
agents is shown as opacity, 0.15 + 0.85 * score / max_score, so unattended
elements stay faintly visible. Raw scores are embedded as data-score
attributes and their total as data-attention-sum on the root element.
Coordinates are in the normalized agent frame.
"""

from __future__ import annotations

from xml.sax.saxutils import quoteattr

import numpy as np

from .dataset import NormalizedSample
from .svg import serialize_path

COLORS = {
    "path": "#888888",
    "agent": "#00008b",
    "main": "#ffd700",
    "gt": "#d62728",
    "pred": "#2ca02c",
}

OPACITY_FLOOR = 0.15


def _poly_d(points: np.ndarray) -> str:
    parts = [f"M {float(points[0][0])!r} {float(points[0][1])!r}"]
    for x, y in points[1:]:
        parts.append(f"L {float(x)!r} {float(y)!r}")
    return " ".join(parts)


def _path(**attrs) -> str:
    """A path element; ids come from input data, so every value is escaped."""
    text = " ".join(f"{name.replace('_', '-')}={quoteattr(str(value))}"
                    for name, value in attrs.items())
    return f"  <path {text}/>"


def _opacity(score: float, max_score: float) -> float:
    rel = score / max_score if max_score > 0 else 0.0
    return OPACITY_FLOOR + (1.0 - OPACITY_FLOOR) * rel


def render_attention_svg(sample: NormalizedSample, entries: list[tuple[str, str, float]],
                         prediction: np.ndarray | None = None) -> str:
    """Build the SVG text for one sample from its extract_attention entries."""
    (ox, oy), (w, h) = sample.scene_svg.viewport.origin, sample.scene_svg.viewport.extent
    path_scores = {key: score for kind, key, score in entries if kind == "path"}
    agent_scores = {key: score for kind, key, score in entries if kind == "agent"}
    total = sum(score for _, _, score in entries)
    max_score = max((s for s in list(path_scores.values()) + list(agent_scores.values())),
                    default=0.0)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{ox} {oy} {w} {h}" '
        f'data-attention-sum="{total!r}">',
    ]
    for path in sample.scene_svg.paths:
        score = path_scores.get(path.id, 0.0)
        lines.append(_path(id=path.id, d=serialize_path(path), fill="none",
                           stroke=COLORS["path"], stroke_width="0.6",
                           opacity=f"{_opacity(score, max_score):.4f}", data_score=repr(score)))

    for hist, valid, aid in zip(sample.other_histories, sample.other_valid,
                                sample.other_ids):
        pts = hist[valid]
        if len(pts) < 2:
            continue
        score = agent_scores.get(aid, 0.0)
        lines.append(_path(id=f"agent-{aid}", d=_poly_d(pts), fill="none",
                           stroke=COLORS["agent"], stroke_width="0.5",
                           opacity=f"{_opacity(score, max_score):.4f}", data_score=repr(score)))

    main_score = next((s for kind, _, s in entries if kind == "main"), 0.0)
    lines.append(_path(id="main-history", d=_poly_d(sample.main_history), fill="none",
                       stroke=COLORS["main"], stroke_width="0.6", data_score=repr(main_score)))
    if sample.target is not None:
        lines.append(_path(id="ground-truth", d=_poly_d(sample.target), fill="none",
                           stroke=COLORS["gt"], stroke_width="0.5"))
    if prediction is not None:
        lines.append(_path(id="prediction", d=_poly_d(np.asarray(prediction)), fill="none",
                           stroke=COLORS["pred"], stroke_width="0.5"))

    lines.append(_legend(ox, oy, w))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _legend(ox: float, oy: float, w: float) -> str:
    items = [("map path", COLORS["path"]), ("other agents", COLORS["agent"]),
             ("main history", COLORS["main"]), ("ground truth", COLORS["gt"]),
             ("prediction", COLORS["pred"])]
    rows = ['  <g id="legend" font-size="2.4" font-family="sans-serif">']
    for i, (label, color) in enumerate(items):
        y = oy + 3.0 + 3.0 * i
        rows.append(f'    <rect x="{ox + 2.0}" y="{y - 1.6}" width="2.4" height="1.6" '
                    f'fill="{color}"/>')
        rows.append(f'    <text x="{ox + 5.2}" y="{y}" fill="#333333">{label}</text>')
    rows.append("  </g>")
    return "\n".join(rows)
