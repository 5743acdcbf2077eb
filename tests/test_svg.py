import numpy as np
import pytest

from svgnet.svg import (ArityError, CommandKind, MalformedNumberError, MissingViewportError,
                        SvgCommand, SvgDocument, SvgPath, UnsupportedCommandError, Viewport,
                        XmlParseError, encode_command, parse_document, parse_path_data,
                        quantize_coords, serialize_path, split_path)


def random_supported_path(rng, max_cmds=12):
    cmds = [SvgCommand.move_to(*rng.uniform(-100, 100, 2))]
    for _ in range(rng.integers(1, max_cmds)):
        choice = rng.integers(0, 3)
        if choice == 0:
            cmds.append(SvgCommand.line_to(*rng.uniform(-100, 100, 2)))
        elif choice == 1:
            cmds.append(SvgCommand.cubic_to(*rng.uniform(-100, 100, 6)))
        else:
            cmds.append(SvgCommand.close_path())
    return SvgPath(tuple(cmds))


class TestParse:
    def test_simple_polyline(self):
        p = parse_path_data("M 0 0 L 10 0 L 10 10")
        assert [c.kind for c in p.commands] == [CommandKind.MOVE_TO, CommandKind.LINE_TO,
                                                CommandKind.LINE_TO]
        assert p.commands[2].end_point == (10.0, 10.0)

    def test_relative_commands(self):
        p = parse_path_data("m 1 1 l 2 0 l 0 3")
        assert p.commands[1].end_point == (3.0, 1.0)
        assert p.commands[2].end_point == (3.0, 4.0)

    def test_relative_cubic(self):
        p = parse_path_data("M 10 10 c 1 2 3 4 5 6")
        assert p.commands[1].args == (11.0, 12.0, 13.0, 14.0, 15.0, 16.0)

    def test_implicit_lineto_after_moveto(self):
        p = parse_path_data("M 0 0 1 2 3 4")
        kinds = [c.kind for c in p.commands]
        assert kinds == [CommandKind.MOVE_TO, CommandKind.LINE_TO, CommandKind.LINE_TO]

    def test_implicit_repetition(self):
        p = parse_path_data("L 0 0 1 1 2 2".replace("L", "M 5 5 L", 1))
        assert len(p.commands) == 4

    def test_quadratic_elevation_exact(self):
        # independent oracle: sample both curves at 11 parameters
        p0, q, p2 = (0.0, 0.0), (1.0, 1.0), (2.0, 0.0)
        path = parse_path_data("M 0 0 Q 1 1 2 0")
        c = path.commands[1]
        assert c.kind == CommandKind.CUBIC_TO
        np.testing.assert_allclose(c.args[:4], (2 / 3, 2 / 3, 4 / 3, 2 / 3), atol=1e-12)
        for t in np.linspace(0, 1, 11):
            quad = ((1 - t) ** 2 * np.array(p0) + 2 * t * (1 - t) * np.array(q)
                    + t ** 2 * np.array(p2))
            cub = ((1 - t) ** 3 * np.array(p0)
                   + 3 * t * (1 - t) ** 2 * np.array(c.args[0:2])
                   + 3 * t ** 2 * (1 - t) * np.array(c.args[2:4])
                   + t ** 3 * np.array(c.args[4:6]))
            np.testing.assert_allclose(cub, quad, atol=1e-9)

    def test_close_path_resets_current_point(self):
        p = parse_path_data("M 1 1 L 2 2 Z l 1 0")
        # after Z the current point is the subpath start (1, 1)
        assert p.commands[-1].end_point == (2.0, 1.0)

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_path_data("L 5")
        with pytest.raises(ArityError):
            parse_path_data("M 0 0 C 1 2 3")

    def test_unsupported_commands(self):
        for d in ("M 0 0 A 1 1 0 0 0 2 2", "M 0 0 H 5", "M 0 0 V 5", "M 0 0 S 1 1 2 2",
                  "M 0 0 T 1 1"):
            with pytest.raises(UnsupportedCommandError):
                parse_path_data(d)

    def test_malformed_number(self):
        with pytest.raises(MalformedNumberError):
            parse_path_data("M 0 0 L 1 +")

    def test_number_without_leading_command(self):
        with pytest.raises(ArityError):
            parse_path_data("1 2 3 4")


class TestSerialize:
    def test_canonical_form(self):
        p = SvgPath((SvgCommand.move_to(0, 0), SvgCommand.line_to(1, 2)))
        assert serialize_path(p) == "M 0 0 L 1 2"

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = random_supported_path(rng)
            back = parse_path_data(serialize_path(p))
            assert len(back.commands) == len(p.commands)
            for a, b in zip(p.commands, back.commands):
                assert a.kind == b.kind
                assert a.args == b.args

    def test_pad_rejected_by_path(self):
        with pytest.raises(ValueError):
            SvgPath((SvgCommand(CommandKind.PAD),))

    def test_eos_not_serializable(self):
        p = SvgPath((SvgCommand.move_to(0, 0), SvgCommand(CommandKind.EOS)))
        with pytest.raises(ValueError):
            serialize_path(p)


class TestDocument:
    def test_two_paths(self):
        doc, ignored = parse_document(
            '<svg viewBox="0 0 10 10"><path d="M 0 0 L 1 1"/><path d="M 2 2 L 3 3"/></svg>')
        assert len(doc.paths) == 2
        assert ignored == 0
        assert doc.viewport == Viewport((0, 0), (10, 10))

    def test_non_path_ignored_with_warning(self):
        doc, ignored = parse_document(
            '<svg width="10" height="10"><circle cx="1" cy="1" r="1"/></svg>')
        assert len(doc.paths) == 0
        assert ignored == 1

    def test_truncated_xml(self):
        with pytest.raises(XmlParseError):
            parse_document('<svg viewBox="0 0 1 1"><path d="M 0 0')

    def test_missing_viewport(self):
        with pytest.raises(MissingViewportError):
            parse_document("<svg><path d='M 0 0 L 1 1'/></svg>")

    def test_namespaced_svg(self):
        doc, _ = parse_document(
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-5 -5 10 10">'
            '<path d="M 0 0 L 1 1"/></svg>')
        assert len(doc.paths) == 1


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
        p = parse_path_data("M 0 0 L 1 1 L 2 2 L 3 3 L 4 4")
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
            split_path(parse_path_data("M 0 0 L 1 1"), 1)


def test_document_xml_round_trip():
    rng = np.random.default_rng(17)
    paths = tuple(random_supported_path(rng) for _ in range(4))
    doc = SvgDocument(paths, Viewport((-50.0, -50.0), (100.0, 100.0)))
    xml = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="-50 -50 100 100">']
    xml += [f'<path d="{serialize_path(p)}"/>' for p in paths]
    back, ignored = parse_document("".join(xml) + "</svg>")
    assert ignored == 0
    assert len(back.paths) == 4
    for a, b in zip(doc.paths, back.paths):
        for ca, cb in zip(a.commands, b.commands):
            assert ca.kind == cb.kind and ca.args == cb.args
