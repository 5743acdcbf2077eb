import numpy as np
import pytest

from model_helpers import frame_record, read_svg_paths
from svgnet.dataset import IngestConfig, normalize_sample
from svgnet.svg import (CommandKind, SvgCommand, SvgPath, Viewport, encode_command,
                        quantize_coords, split_path)
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

    def test_pad_rejected_by_path(self):
        with pytest.raises(ValueError):
            SvgPath((SvgCommand(CommandKind.PAD),))


class TestQuantize:
    VIEW = Viewport((0.0, 0.0), (100.0, 100.0))

    def test_boundary_bins(self):
        vec = encode_command(SvgCommand.line_to(0, 0), self.VIEW)
        assert vec.kind_index == int(CommandKind.LINE_TO)
        assert vec.arg_bins == (-1, -1, -1, -1, 0, 0)

    def test_round_half_up(self):
        vec = encode_command(SvgCommand.line_to(50, 100), self.VIEW)
        assert vec.arg_bins[4] == 128  # 50/100*255 = 127.5 rounds up
        assert vec.arg_bins[5] == 255

    def test_close_path_all_sentinels(self):
        vec = encode_command(SvgCommand.close_path(), self.VIEW)
        assert vec.kind_index == int(CommandKind.CLOSE_PATH)
        assert vec.arg_bins == (-1,) * 6

    def test_clamping(self):
        clamped = encode_command(SvgCommand.line_to(-5, 120), self.VIEW)
        assert clamped.arg_bins[4] == 0 and clamped.arg_bins[5] == 255

    def test_monotonicity(self):
        rng = np.random.default_rng(11)
        coords = np.sort(rng.uniform(-10, 110, 200))
        bins = quantize_coords(coords, 0.0, 100.0)
        assert (np.diff(bins) >= 0).all()
        assert bins[0] == 0 and bins[-1] == 255   # clipped below and above

    def test_dequantize_error_bound(self):
        rng = np.random.default_rng(13)
        coords = rng.uniform(0, 100, 500)
        centres = quantize_coords(coords, 0.0, 100.0) / 255 * 100.0
        assert (np.abs(centres - coords) <= 100.0 / 255 / 2 + 1e-9).all()

    def test_array_form_takes_xy_pairs(self):
        # (n, 2) points against per-axis origin and extent, as make_batch calls it
        pts = np.array([[-50.0, 0.0], [0.0, 20.0], [50.0, 40.0], [70.0, -1.0]])
        bins = quantize_coords(pts, (-50.0, 0.0), (100.0, 40.0))
        assert bins.dtype == np.int16
        np.testing.assert_array_equal(bins, [[0, 0], [128, 128], [255, 255], [255, 0]])

    def test_round_half_up_on_an_odd_bin(self):
        # 126.5 rounds to 127 where round-half-to-even would give 126
        value = 126.5 / 255 * 100.0
        assert value / 100.0 * 255 == 126.5
        assert quantize_coords([value], 0.0, 100.0).tolist() == [127]

    def test_decode_inverse(self):
        # each cubic slot lands in the bin whose centre is within half a bin
        cmd = SvgCommand.cubic_to(1, 2, 3, 4, 5, 6)
        vec = encode_command(cmd, self.VIEW)
        assert vec.kind_index == int(CommandKind.CUBIC_TO)
        centres = [b / 255 * 100.0 for b in vec.arg_bins]
        np.testing.assert_allclose(centres, cmd.args, atol=100.0 / 255 / 2 + 1e-9)


class TestSplit:
    def segment_count(self, paths):
        n = 0
        for p in (paths if isinstance(paths, list) else [paths]):
            for c in p.commands:
                if c.kind in (CommandKind.LINE_TO, CommandKind.CUBIC_TO, CommandKind.CLOSE_PATH):
                    n += 1
        return n

    def test_short_path_unchanged(self):
        p = SvgPath([SvgCommand.move_to(0, 0)] + [SvgCommand.line_to(i, i) for i in range(1, 5)])
        assert split_path(p, 10) == [p]

    def test_long_polyline_split(self):
        cmds = [SvgCommand.move_to(0, 0)] + [SvgCommand.line_to(i, 0) for i in range(1, 35)]
        p = SvgPath(tuple(cmds))
        parts = split_path(p, 30)
        assert len(parts) == 2
        assert all(len(q.commands) <= 30 for q in parts)
        assert parts[1].commands[0].kind == CommandKind.MOVE_TO
        # the prefix MoveTo sits at the endpoint of command 30
        assert parts[1].commands[0].end_point == p.commands[29].end_point

    def test_segment_count_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cmds = [SvgCommand.move_to(*rng.uniform(-10, 10, 2))]
            for _ in range(rng.integers(2, 80)):
                cmds.append(SvgCommand.line_to(*rng.uniform(-10, 10, 2)))
            p = SvgPath(tuple(cmds))
            parts = split_path(p, int(rng.integers(2, 12)))
            assert self.segment_count(parts) == self.segment_count(p)
            assert all(len(q.commands) <= 12 for q in parts)

    def test_max_commands_validation(self):
        with pytest.raises(ValueError):
            split_path(SvgPath((SvgCommand.move_to(0, 0), SvgCommand.line_to(1, 1))), 1)


def test_document_xml_round_trip():
    # visualize's SVG reads back to each lane chunk's vertices and id, in order, for lanes
    # that run out of the viewport (clamped onto its edge) and are split into chunks
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
    for (_, pts), start, stop in zip(read, lanes.offsets[:-1], lanes.offsets[1:]):
        assert np.array_equal(pts, lanes.vertices[start:stop])
