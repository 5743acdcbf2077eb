import numpy as np
import pytest

from model_helpers import HALF_BIN_ODD, frame_record, read_svg_paths
from svgnet.dataset import IngestConfig, normalize_sample
from svgnet.svg import CommandKind, encode_command, quantize_coords, split_path
from svgnet.viz import _poly_d, render_attention_svg


class TestSerialize:
    def test_canonical_form(self):
        assert _poly_d(np.array([[0.0, 0.0], [1.0, 2.5]])) == "M 0.0 0.0 L 1.0 2.5"

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            pts = rng.uniform(-100, 100, (int(rng.integers(1, 12)), 2))
            svg = f'<svg xmlns="http://www.w3.org/2000/svg"><path d="{_poly_d(pts)}"/></svg>'
            [(_, back)] = read_svg_paths(svg)
            assert np.array_equal(back, pts)


class TestQuantize:
    # the view is the square [-50, 50] on each axis
    EXTENT = 100.0

    def test_boundary_bins(self):
        assert encode_command(CommandKind.LINE_TO, -50, -50, self.EXTENT) == (
            int(CommandKind.LINE_TO), (-1, -1, -1, -1, 0, 0))
        assert encode_command(CommandKind.MOVE_TO, 50, 50, self.EXTENT) == (
            int(CommandKind.MOVE_TO), (-1, -1, -1, -1, 255, 255))

    def test_round_half_up(self):
        _, bins = encode_command(CommandKind.LINE_TO, 0, 50, self.EXTENT)
        assert bins[4] == 128  # 50/100*255 = 127.5 rounds up
        assert bins[5] == 255

    def test_clamping(self):
        _, bins = encode_command(CommandKind.LINE_TO, -55, 70, self.EXTENT)
        assert bins[4] == 0 and bins[5] == 255

    def test_monotonicity(self):
        rng = np.random.default_rng(11)
        coords = np.sort(rng.uniform(-60, 60, 200))
        bins = quantize_coords(coords, self.EXTENT)
        assert (np.diff(bins) >= 0).all()
        assert bins[0] == 0 and bins[-1] == 255   # clipped below and above

    def test_dequantize_error_bound(self):
        rng = np.random.default_rng(13)
        coords = rng.uniform(-50, 50, 500)
        centres = quantize_coords(coords, self.EXTENT) / 255 * 100.0 - 50.0
        assert (np.abs(centres - coords) <= 100.0 / 255 / 2 + 1e-9).all()

    def test_array_form_takes_xy_pairs(self):
        # (n, 2) points, as make_batch calls it
        pts = np.array([[-50.0, 50.0], [0.0, 10.0], [60.0, -50.0], [-70.0, 0.0]])
        bins = quantize_coords(pts, self.EXTENT)
        assert bins.dtype == np.int16
        np.testing.assert_array_equal(bins, [[0, 255], [128, 153], [255, 0], [0, 128]])

    def test_round_half_up_on_an_odd_bin(self):
        # 126.5 rounds to 127 where round-half-to-even would give 126
        assert (HALF_BIN_ODD + 50.0) / 100.0 * 255 == 126.5
        assert quantize_coords([HALF_BIN_ODD], self.EXTENT).tolist() == [127]


class TestSplit:
    def test_short_path_unchanged(self):
        pts = np.stack([np.arange(5.0), np.arange(5.0)], axis=1)
        [chunk] = split_path(pts, 10)
        assert np.array_equal(chunk, pts) and np.shares_memory(chunk, pts)

    def test_long_polyline_split(self):
        pts = np.stack([np.arange(35.0), np.zeros(35)], axis=1)
        parts = split_path(pts, 30)
        assert [len(q) for q in parts] == [30, 6]
        # the second chunk's MoveTo sits on the first chunk's last vertex
        assert np.array_equal(parts[1][0], pts[29])

    def test_segment_count_preserved(self):
        # the chunks draw the polyline's segments, each once and in order
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = rng.uniform(-10, 10, (int(rng.integers(3, 82)), 2))
            mc = int(rng.integers(2, 12))
            parts = split_path(pts, mc)
            assert all(2 <= len(q) <= mc for q in parts)
            assert all(np.array_equal(a[-1], b[0]) for a, b in zip(parts[:-1], parts[1:]))
            segments = np.concatenate([np.stack([q[:-1], q[1:]], axis=1) for q in parts])
            assert np.array_equal(segments, np.stack([pts[:-1], pts[1:]], axis=1))

    def test_max_commands_validation(self):
        with pytest.raises(ValueError):
            split_path(np.array([[0.0, 0.0], [1.0, 1.0]]), 1)


def test_document_xml_round_trip():
    # visualize's SVG reads back to each lane chunk's vertices and id, in order, for lanes
    # that run out of the view (clamped onto its edge) and are split into chunks
    rng = np.random.default_rng(17)
    across = np.stack([np.linspace(-81.3, 77.9, 40), rng.uniform(-70.0, 70.0, 40)], axis=1)
    inside = rng.uniform(-49.0, 49.0, (5, 2))
    sample = normalize_sample(frame_record([across, inside]), IngestConfig(max_commands=6))
    lanes = sample.scene_svg
    assert any("#" in path_id for path_id in lanes.ids)
    assert (np.abs(lanes.vertices) == 50.0).any() and (np.abs(lanes.vertices) % 1 > 0).any()

    read = [(path_id, pts) for path_id, pts in read_svg_paths(render_attention_svg(sample, []))
            if path_id.startswith("lane")]
    assert [path_id for path_id, _ in read] == lanes.ids
    for (_, pts), chunk in zip(read, lanes.paths, strict=True):
        assert np.array_equal(pts, chunk)
