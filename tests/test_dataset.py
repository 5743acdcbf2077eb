import dataclasses
import json
import re

import numpy as np
import pytest

from model_helpers import HALF_BIN_ODD, frame_record, take_batch
from svgnet.dataset import (VIEW_EXTENT, AgentTrack, Batch, DatasetError, IngestConfig,
                            SceneRecord, SchemaError, apply_affine_points, concat_batches,
                            import_argoverse_csv, load_dataset, make_batch, normalize_sample,
                            save_dataset)
from svgnet.svg import CommandKind, encode_command, split_path
from svgnet.synth import SynthConfig, generate_records


def straight_record(heading=(1.0, 0.0), speed=1.0, n_frames=50, scene_id="s0",
                    extra_agents=0) -> SceneRecord:
    h = np.asarray(heading) / np.linalg.norm(heading)
    start = np.array([100.0, 200.0])
    frames = np.arange(n_frames)
    xy = start + frames[:, None] * speed * h
    agents = [AgentTrack("main", frames, xy, is_main=True)]
    for k in range(extra_agents):
        agents.append(AgentTrack(f"other{k}", frames, xy + (0.0, 3.5 * (k + 1))))
    lane = start + np.arange(-20.0, 80.0)[:, None] * h
    return SceneRecord(scene_id, [lane], agents)


def lane_chunks(polylines, max_commands=30):
    cfg = IngestConfig(max_commands=max_commands)
    return normalize_sample(frame_record(polylines), cfg).scene_svg


class TestRecords:
    def test_exactly_one_main(self):
        frames = np.arange(3)
        xy = np.zeros((3, 2))
        with pytest.raises(ValueError):
            SceneRecord("x", [], [AgentTrack("a", frames, xy)])
        with pytest.raises(ValueError):
            SceneRecord("x", [], [AgentTrack("a", frames, xy, True),
                                  AgentTrack("b", frames, xy, True)])

    def test_frames_strictly_increasing(self):
        with pytest.raises(ValueError):
            AgentTrack("a", np.array([0, 0, 1]), np.zeros((3, 2)))

    @pytest.mark.parametrize("scale, message", [(1e305, "coordinate beyond ±1e8 m"),
                                                (np.inf, "non-finite coordinate")])
    def test_records_built_in_code_keep_the_coordinate_bound(self, scale, message):
        # before, the agents of synth seed 1's scene 0 scaled by 1e305 made a
        # record, and metrics.evaluate scored it ade 0.0, fde 0.0, miss 0.0
        rec = generate_records(SynthConfig(seed=1, n_scenes=1))[0]
        a = rec.agents[0]
        with pytest.raises(ValueError, match=f"^{message}$"):
            AgentTrack(a.agent_id, a.frames, a.xy * scale, a.is_main)
        far = [p.copy() for p in rec.map_polylines]
        far[1][2, 0] *= scale
        with pytest.raises(ValueError, match=f"^map polyline 1: {message}$"):
            SceneRecord(rec.scene_id, far, rec.agents)
        # at the bound itself a record is fine
        a.xy[0] = [1e8, -1e8]
        far[1][2] = [-1e8, 1e8]
        SceneRecord(rec.scene_id, far, [AgentTrack(t.agent_id, t.frames, t.xy, t.is_main)
                                        for t in rec.agents])

    @pytest.mark.parametrize("poly", [np.zeros((3, 3)), np.zeros(4), np.empty((0, 2))],
                             ids=["three-columns", "1-d", "empty"])
    def test_polyline_must_be_a_non_empty_point_array(self, poly):
        # before, these records were built and normalize_sample failed with
        # numpy's "operands could not be broadcast" (or dropped the empty one)
        rec = straight_record()
        message = f"map polyline 1: expected a non-empty (n, 2) array, got shape {poly.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SceneRecord("x", [rec.map_polylines[0], poly], rec.agents)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = [straight_record(scene_id=f"s{i}", extra_agents=i) for i in range(3)]
        path = tmp_path / "data.jsonl"
        assert save_dataset(records, path) == 3
        back = list(load_dataset(path))
        assert [r.scene_id for r in back] == ["s0", "s1", "s2"]
        np.testing.assert_array_equal(back[1].main_agent.xy, records[1].main_agent.xy)
        assert len(back[2].agents) == 3

    def test_bad_line_collected_not_fatal(self, tmp_path):
        # before, JSON that is not an object (5, null) raised a TypeError past the collector
        good = json.dumps(straight_record().to_json_obj())
        bad = json.dumps({"scene_id": "broken", "frame_rate": 10, "map_polylines": []})
        path = tmp_path / "mixed.jsonl"
        # line 5 is Latin-1, not UTF-8: before, it ended the read with a UnicodeDecodeError
        latin1 = json.dumps({"scene_id": "café"}, ensure_ascii=False).encode("latin-1")
        path.write_bytes(b"\n".join([good.encode(), bad.encode(), b"5", b"null", latin1,
                                      good.encode()]) + b"\n")
        errors: list[SchemaError] = []
        records = list(load_dataset(path, errors=errors))
        assert len(records) == 2
        assert [(e.line_no, e.field) for e in errors] == [(2, "agents"), (3, "<record>"),
                                                          (4, "<record>"), (5, "<json>")]

    def test_bad_line_raises_without_collector(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SchemaError):
            list(load_dataset(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(load_dataset(path)) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        line = json.dumps(straight_record().to_json_obj())
        path = tmp_path / "blank.jsonl"
        path.write_text(f"\n{line}\n   \n\t\n{line}\n\n")
        errors: list[SchemaError] = []
        assert [r.scene_id for r in load_dataset(path, errors=errors)] == ["s0", "s0"]
        assert errors == []

    @pytest.mark.parametrize("agent, field", [(["main"], "agents[0]"),
                                              ({"agent_id": "main", "is_main": True},
                                               "agents[0].positions")],
                             ids=["not-an-object", "no-positions"])
    def test_malformed_agent_entry_is_a_schema_error(self, tmp_path, agent, field):
        obj = straight_record().to_json_obj()
        obj["agents"][0] = agent
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaError) as info:
            list(load_dataset(path))
        assert (info.value.line_no, info.value.field) == (1, field)

    @pytest.mark.parametrize("vertex, value", [(0, float("nan")), (5, float("nan")),
                                               (5, float("inf"))],
                             ids=["first-nan", "interior-nan", "interior-inf"])
    def test_non_finite_map_coordinate_is_a_schema_error(self, tmp_path, vertex, value):
        # synth scene 0, whose lane0 has 74 vertices: before, an interior NaN
        # silently dropped that vertex and the next one during normalization
        good = generate_records(SynthConfig(seed=0, n_scenes=1))[0].to_json_obj()
        bad = json.loads(json.dumps(good))
        bad["map_polylines"][0][vertex][0] = value
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        errors: list[SchemaError] = []
        records = list(load_dataset(path, errors=errors))
        assert [r.scene_id for r in records] == ["synth-000000"]
        assert len(errors) == 1
        assert errors[0].line_no == 1 and errors[0].field == "map_polylines[0]"
        assert "non-finite" in str(errors[0])

    @pytest.mark.parametrize("positions", [[[0, 1.0, "x"]], [[0, 1.0]], [[float("nan"), 1.0, 2.0]]],
                             ids=["non-numeric", "two-columns", "nan-frame"])
    def test_bad_agent_positions_are_a_schema_error(self, tmp_path, positions):
        obj = straight_record().to_json_obj()
        obj["agents"][0]["positions"] = positions
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaError, match=r"agents\[0\]\.positions"):
            list(load_dataset(path))


    @pytest.mark.parametrize("field", ["map_polylines[0]", "agents[1].positions"])
    def test_coordinate_beyond_1e8_m_is_a_schema_error(self, tmp_path, field):
        # before, an agent at 1e50 m loaded, and eval scored its scene NaN or 0.0
        good = straight_record(extra_agents=1).to_json_obj()
        lines = []
        for value in (1.5e8, -1.5e8, 1e8):
            obj = json.loads(json.dumps(good))
            point = (obj["map_polylines"][0][3] if field == "map_polylines[0]"
                     else obj["agents"][1]["positions"][3])
            point[-1] = value   # y
            lines.append(json.dumps(obj))
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n")
        errors: list[SchemaError] = []
        records = list(load_dataset(path, errors=errors))
        assert [(e.line_no, e.field, e.message) for e in errors] == [
            (1, field, "coordinate beyond ±1e8 m"), (2, field, "coordinate beyond ±1e8 m")]
        (at_bound,) = records
        xy = at_bound.map_polylines[0] if field == "map_polylines[0]" else at_bound.agents[1].xy
        assert xy[3, 1] == 1e8
        xy[3, 1] = 1.5e8
        with pytest.raises(DatasetError, match=rf"cannot save field '{re.escape(field)}' "
                                               r"\(coordinate beyond ±1e8 m\)$"):
            save_dataset([at_bound], tmp_path / "out.jsonl")
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("agent, frame, value", [(0, 2, 2.9), (1, -1, 1e300)],
                             ids=["fraction", "beyond-int64"])
    def test_non_integer_frame_is_a_schema_error(self, tmp_path, agent, frame, value):
        # before, frame 2 written as 2.9 loaded as frame 2 without a word
        obj = generate_records(SynthConfig(seed=0, n_scenes=1))[0].to_json_obj()
        obj["agents"][agent]["positions"][frame][0] = value
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaError, match=rf"agents\[{agent}\]\.positions.*integers"):
            list(load_dataset(path))

    @pytest.mark.parametrize("key, value", [
        ("frame_rate", float("nan")), ("frame_rate", -5), ("frame_rate", True),
        ("agent_id", None), ("agent_id", [1, 2]), ("is_main", "false")],
        ids=["rate-nan", "rate-negative", "rate-bool", "id-null", "id-list", "main-string"])
    def test_malformed_scalar_field_is_a_schema_error(self, tmp_path, key, value):
        # before, these loaded: a NaN rate saved back as bare NaN, a null id
        # as "None", and is_main "false" as a second main agent
        obj = straight_record(extra_agents=1).to_json_obj()
        if key == "frame_rate":
            obj[key] = value
        else:
            obj["agents"][1][key] = value
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaError) as info:
            list(load_dataset(path))
        assert info.value.field == (key if key == "frame_rate" else f"agents[1].{key}")

    @pytest.mark.parametrize("field, value", [
        ("frame_rate", float("nan")), ("scene_id", 5), ("agents[1].agent_id", None),
        ("agents[1].is_main", np.bool_(False)), ("map_polylines[0]", float("inf")),
        ("map_polylines[0]", np.empty((0, 2))), ("map_polylines[0]", np.zeros((3, 3))),
        ("agents[1].positions", ([], np.empty((0, 2)))),
        ("agents[1].positions", ([0, 2 ** 62], np.zeros((2, 2))))],
        ids=["rate-nan", "id-number", "agent-id-null", "main-numpy-bool", "map-inf",
             "map-empty", "map-three-columns", "agent-no-positions", "frame-2**62"])
    def test_save_rejects_what_load_rejects(self, tmp_path, field, value):
        # before, the first three were written and then failed to load, the
        # numpy bool was an untyped TypeError and the inf was written as
        # Infinity; the last four were written and then failed to load
        bad = straight_record(scene_id="bad", extra_agents=1)
        if field == "agents[1].positions":
            bad.agents[1] = AgentTrack("other0", *value)
        elif field.startswith("agents"):
            setattr(bad.agents[1], field.split(".")[1], value)
        elif field == "map_polylines[0]" and np.ndim(value) == 0:
            bad.map_polylines[0][3, 1] = value
        elif field == "map_polylines[0]":
            bad.map_polylines[0] = value
        else:
            setattr(bad, field, value)
        path = tmp_path / "sub" / "data.jsonl"
        with pytest.raises(DatasetError, match=rf"scene {bad.scene_id!r}: cannot save field "
                                               rf"'{re.escape(field)}' \(.+\)$"):
            save_dataset([straight_record(), bad], path)
        assert list(tmp_path.iterdir()) == []

    def test_save_load_save_is_byte_identical(self, tmp_path):
        # before, an integer frame_rate was saved as 10 and saved again as 10.0
        for frame_rate in (10, 10.0):
            records = [dataclasses.replace(r, frame_rate=frame_rate)
                       for r in generate_records(SynthConfig(seed=0, n_scenes=20))]
            records[0].scene_id = 'quote " backslash \\ tab \t'
            records[1].scene_id = "näive 場景 🚗"
            for a in records[1].agents:
                a.agent_id += ' "β"'
            first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
            save_dataset(records, first)
            save_dataset(list(load_dataset(first)), second)
            assert second.read_bytes() == first.read_bytes()
            assert [r.scene_id for r in load_dataset(second)] == [r.scene_id for r in records]


class TestPolylinesToSvg:
    """normalize_sample's conversion of map polylines to lane chunks."""

    def test_direct_mapping(self):
        lanes = lane_chunks([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        assert lanes.ids == ["lane0"]
        np.testing.assert_array_equal(lanes.offsets, [0, 3])
        np.testing.assert_array_equal(lanes.vertices, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        [path] = lanes.paths
        np.testing.assert_array_equal(path, lanes.vertices)

    def test_empty_input(self):
        lanes = lane_chunks([])
        assert lanes.paths == [] and lanes.ids == [] and lanes.vertices.shape == (0, 2)
        np.testing.assert_array_equal(lanes.offsets, [0])

    def test_paths_are_views_of_the_chunk_vertices(self, rng):
        polys = [rng.uniform(-40, 40, (int(rng.integers(2, 30)), 2)) for _ in range(4)]
        lanes = lane_chunks(polys, max_commands=6)
        assert len(lanes.paths) == len(lanes.ids) > 4
        for path, start, stop in zip(lanes.paths, lanes.offsets[:-1], lanes.offsets[1:]):
            assert np.shares_memory(path, lanes.vertices)
            np.testing.assert_array_equal(path, lanes.vertices[start:stop])

    def test_degenerate_skipped(self):
        # one vertex; one repeated; one left once clamping collapses the repeats
        for poly in ([[0.0, 0.0]], [[3.0, 4.0], [3.0, 4.0]],
                     [[49.0, 50.0], [49.0, 70.0], [49.0, 80.0]]):
            assert lane_chunks([poly]).paths == []

    def test_fully_outside_dropped(self):
        assert lane_chunks([[[200.0, 200.0], [210.0, 200.0]]]).paths == []

    def test_split_chunks_share_their_boundary_vertex(self):
        # mc = 4: 8 vertices make chunks [0, 4), [3, 7), [6, 8)
        poly = np.stack([np.arange(8.0), np.zeros(8)], axis=1)
        lanes = lane_chunks([poly], max_commands=4)
        assert lanes.ids == ["lane0#0", "lane0#1", "lane0#2"]
        np.testing.assert_array_equal(lanes.offsets, [0, 4, 8, 10])
        np.testing.assert_array_equal(lanes.vertices[:, 0], [0, 1, 2, 3, 3, 4, 5, 6, 6, 7])

    def test_path_ids_follow_the_record_index(self):
        # an out-of-view polyline first: the lanes keep their record index
        rec = generate_records(SynthConfig(seed=0, n_scenes=1))[0]
        base = normalize_sample(rec, IngestConfig())
        rec.map_polylines.insert(0, np.array([[1e5, 1e5], [1e5 + 10.0, 1e5]]))
        shifted = normalize_sample(rec, IngestConfig())
        ids = shifted.scene_svg.ids
        assert ids[0] == "lane1#0"
        assert ids == [re.sub(r"\d+", lambda m: str(int(m.group()) + 1), path_id, count=1)
                       for path_id in base.scene_svg.ids]

    def test_counting_property(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            m = int(rng.integers(2, 20))
            lanes = lane_chunks([rng.uniform(-40, 40, (m, 2)) for _ in range(k)])
            assert len(lanes.paths) == k
            assert all(len(p) == m for p in lanes.paths)

    def test_line_kinds_only(self, rng):
        polys = [rng.uniform(-40, 40, (int(rng.integers(2, 90)), 2)) for _ in range(5)]
        sample = normalize_sample(frame_record(polys), IngestConfig(max_commands=12))
        assert all(len(p) <= 12 for p in sample.scene_svg.paths)
        kinds = make_batch([sample], 64, 12, 2).command_kinds[0]
        real = kinds[:len(sample.scene_svg.paths)]
        assert (real[:, 0] == CommandKind.MOVE_TO).all()
        assert set(np.unique(real[:, 1:]).tolist()) <= {CommandKind.LINE_TO, CommandKind.PAD}


class TestNormalize:
    CFG = IngestConfig()

    def test_east_maps_to_minus_y_history(self):
        sample = normalize_sample(straight_record(heading=(1.0, 0.0)), self.CFG)
        np.testing.assert_allclose(sample.main_history[-1], [0.0, 0.0], atol=1e-9)
        # moving due east: the past extends toward -y after rotation
        np.testing.assert_allclose(sample.main_history[:, 0], 0.0, atol=1e-9)
        assert (np.diff(sample.main_history[:, 1]) > 0).all()
        np.testing.assert_allclose(sample.main_history[0], [0.0, -19.0], atol=1e-9)
        # the future continues along +y
        np.testing.assert_allclose(sample.target[-1], [0.0, 30.0], atol=1e-9)

    def test_stationary_fallback_identity(self):
        rec = straight_record(speed=0.0)
        sample = normalize_sample(rec, self.CFG)
        anchor = rec.main_agent.xy[19]
        lane_back = apply_affine_points(sample.frame_to_city,
                                        np.array([[1.0, 2.0]])) - anchor
        np.testing.assert_allclose(lane_back, [[1.0, 2.0]], atol=1e-9)

    def test_inverse_identity(self):
        rec = straight_record(heading=(0.3, -1.2), speed=0.7)
        sample = normalize_sample(rec, self.CFG)
        city = apply_affine_points(sample.frame_to_city, sample.target)
        np.testing.assert_allclose(city, rec.main_agent.xy[20:], atol=1e-6)
        origin_city = apply_affine_points(sample.frame_to_city, np.zeros((1, 2)))
        np.testing.assert_allclose(origin_city[0], rec.main_agent.xy[19], atol=1e-6)

    def test_rigidity(self, rng):
        rec = straight_record(heading=(2.0, 1.0), extra_agents=2)
        sample = normalize_sample(rec, self.CFG)
        a = rec.agents[1].xy[:20]
        b = rec.agents[2].xy[:20]
        na, nb = sample.other_histories
        np.testing.assert_allclose(np.linalg.norm(a - b, axis=1),
                                   np.linalg.norm(na - nb, axis=1), atol=1e-6)

    def test_insufficient_history(self):
        frames = np.arange(5, 50)  # missing frames 0..4
        xy = np.zeros((45, 2))
        rec = SceneRecord("x", [], [AgentTrack("m", frames, xy, True)])
        with pytest.raises(DatasetError,
                           match=r"'x': main agent must be observed on every frame 0\.\.19$"):
            normalize_sample(rec, self.CFG)

    def test_no_target_for_short_records(self):
        sample = normalize_sample(straight_record(n_frames=20), self.CFG)
        assert sample.target is None

    @pytest.mark.parametrize("field, value", [("max_commands", 1), ("t_obs", 0),
                                              ("t_obs", -2), ("t_pred", 0)])
    def test_config_validation(self, field, value):
        # before, t_obs -2 gave a 26-frame history and t_pred 0 an empty target
        with pytest.raises(ValueError, match=field):
            IngestConfig(**{field: value})


class TestMakeBatch:
    CFG = IngestConfig()

    def test_path_mask_counts(self):
        sample = normalize_sample(straight_record(), self.CFG)
        n_paths = len(sample.scene_svg.paths)
        batch = make_batch([sample], 128, 30, 16)
        assert batch.path_mask.sum() == n_paths
        assert batch.command_mask.sum() > 0
        assert batch.targets is not None and batch.targets.shape == (1, 60)

    def test_farthest_paths_dropped(self):
        # lanes at increasing distance from the origin-anchored main agent
        rec = straight_record()
        anchor = rec.main_agent.xy[19]
        rec.map_polylines = [
            np.array([anchor + (0.0, off), anchor + (5.0, off)]) for off in
            (0.0, 2.0, 4.0, 40.0, 45.0)
        ]
        sample = normalize_sample(rec, self.CFG)
        batch = make_batch([sample], 3, 30, 16)
        assert batch.path_mask.sum() == 3
        kept = {pid for pid in batch.path_ids[0]}
        assert kept == {"lane0", "lane1", "lane2"}

    def test_farthest_agents_dropped(self):
        rec = straight_record(extra_agents=5)
        sample = normalize_sample(rec, self.CFG)
        batch = make_batch([sample], 128, 30, 2)
        assert batch.agent_mask.sum() == 2
        assert batch.agent_ids[0] == ["other0", "other1"]

    def test_partial_agent_zero_filled_and_flagged(self):
        rec = straight_record()
        frames = np.arange(12)
        xy = np.tile(rec.main_agent.xy[19] + (3.0, 3.0), (12, 1))
        rec.agents.append(AgentTrack("partial", frames, xy))
        sample = normalize_sample(rec, self.CFG)
        batch = make_batch([sample], 128, 30, 16)
        assert batch.agent_mask[0, 0] == 1.0
        hist = batch.agent_histories[0, 0].reshape(20, 2)
        assert (hist[12:] == 0).all()

    def test_masked_grid_entries_are_pad(self):
        sample = normalize_sample(straight_record(), self.CFG)
        batch = make_batch([sample], 8, 30, 4)
        masked = batch.command_mask == 0
        assert (batch.command_kinds[masked] == int(CommandKind.PAD)).all()
        assert (batch.command_args[masked] == -1).all()

    def test_targets_need_every_sample_or_none(self):
        full = normalize_sample(straight_record(scene_id="full"), self.CFG)
        short = normalize_sample(straight_record(n_frames=20, scene_id="short"), self.CFG)
        assert make_batch([short, short], 16, 30, 4).targets is None
        with pytest.raises(DatasetError, match="'short' has no target, unlike others in its batch"):
            make_batch([full, short], 16, 30, 4)

    def test_take_and_concat(self):
        samples = [normalize_sample(straight_record(scene_id=f"s{i}"), self.CFG)
                   for i in range(4)]
        batch = make_batch(samples, 16, 30, 4)
        taken = take_batch(batch, [2, 0])
        assert taken.scene_ids == ["s2", "s0"]
        merged = concat_batches([take_batch(batch, [0]), take_batch(batch, [1])])
        assert len(merged) == 2
        np.testing.assert_array_equal(merged.main_history[1], batch.main_history[1])


def oracle_paths(record: SceneRecord, sample, cfg: IngestConfig) -> list[tuple[str, np.ndarray]]:
    """Scalar reference for the lane chunks: each clamped polyline split by
    split_path, as (id, vertices) pairs."""
    rot = np.ascontiguousarray(sample.frame_to_city[:, :2].T)
    anchor, half = sample.frame_to_city[:, 2], VIEW_EXTENT / 2.0
    paths = []
    for i, poly in enumerate(record.map_polylines):
        pts = (poly - anchor) @ rot.T
        if not any(abs(x) <= half and abs(y) <= half for x, y in pts):
            continue
        pts = np.clip(pts, -half, half)
        kept = [pts[0]] + [b for a, b in zip(pts[:-1], pts[1:]) if (np.abs(b - a) > 1e-12).any()]
        if len(kept) < 2:
            continue
        chunks = split_path(np.array(kept), cfg.max_commands)
        ids = [f"lane{i}"] if len(chunks) == 1 else [f"lane{i}#{k}" for k in range(len(chunks))]
        paths += zip(ids, chunks)
    return paths


def oracle_path_arrays(paths: list[tuple[str, np.ndarray]], extent: float, n_paths: int,
                       n_commands: int):
    """Scalar reference for make_batch's path arrays of one sample."""
    if len(paths) > n_paths:
        dist = [min(x * x + y * y for x, y in pts) for _, pts in paths]
        paths = [paths[j] for j in sorted(np.argsort(dist, kind="stable")[:n_paths])]
    kinds = np.full((n_paths, n_commands), int(CommandKind.PAD), dtype=np.int16)
    args = np.full((n_paths, n_commands, 6), -1, dtype=np.int16)
    path_mask = np.zeros(n_paths, dtype=np.float32)
    command_mask = np.zeros((n_paths, n_commands), dtype=np.float32)
    for j, (_, pts) in enumerate(paths):
        path_mask[j] = 1.0
        for k, (x, y) in enumerate(pts[:n_commands]):
            kind = CommandKind.MOVE_TO if k == 0 else CommandKind.LINE_TO
            kinds[j, k], args[j, k] = encode_command(kind, x, y, extent)
            command_mask[j, k] = 1.0
    return kinds, args, path_mask, command_mask, [path_id for path_id, _ in paths]


def line(n, x=0.0, y0=-10.0):
    return [[x, y0 + k] for k in range(n)]


class TestMakeBatchOracle:
    def assert_matches_oracle(self, record, cfg, n_paths, n_commands):
        sample = normalize_sample(record, cfg)
        paths = oracle_paths(record, sample, cfg)
        assert sample.scene_svg.ids == [path_id for path_id, _ in paths]
        for got, (_, want) in zip(sample.scene_svg.paths, paths, strict=True):
            assert np.array_equal(got, want)
        batch = make_batch([sample], n_paths, n_commands, 2)
        want = oracle_path_arrays(paths, VIEW_EXTENT, n_paths, n_commands)
        got = (batch.command_kinds[0], batch.command_args[0], batch.path_mask[0],
               batch.command_mask[0], batch.path_ids[0])
        for g, w in zip(got[:4], want[:4]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[4] == want[4]
        return paths

    @pytest.mark.parametrize("caps", [(4, 6), (128, 30)], ids=["tiny", "paper"])
    def test_synth_scenes(self, caps):
        n_paths, n_commands = caps
        cfg = IngestConfig(max_commands=n_commands)
        for record in generate_records(SynthConfig(seed=0, n_scenes=24)):
            self.assert_matches_oracle(record, cfg, n_paths, n_commands)

    @pytest.mark.parametrize("polys, max_commands, caps", [
        ([[[40.0, 0.0], [60.0, 0.0], [60.0, 10.0], [45.0, 10.0]], line(3)], 30, (8, 30)),
        ([[[49.0, 50.0], [49.0, 70.0], [49.0, 80.0]], line(3)], 30, (8, 30)),
        ([[[200.0, 200.0], [210.0, 200.0]], line(3)], 30, (8, 30)),
        ([line(6), line(7, x=2.0)], 6, (8, 6)),
        ([line(20)], 30, (8, 6)),
        ([line(3, x=-3.0), line(3, x=3.0), line(3, x=-3.0), line(3, x=9.0)], 30, (2, 30)),
        ([[[0.0, 0.0], [HALF_BIN_ODD, HALF_BIN_ODD]]], 30, (8, 30)),
    ], ids=["clamped-onto-edge", "degenerate-once-deduplicated", "out-of-view",
            "mc-and-mc-plus-1", "truncated-to-n-commands", "distance-ties", "half-bin"])
    def test_edge_cases(self, polys, max_commands, caps):
        cfg = IngestConfig(max_commands=max_commands)
        paths = self.assert_matches_oracle(frame_record(polys), cfg, *caps)
        assert paths, "each case keeps at least one lane"


class TestArgoverseImport:
    def write_csv(self, path, rows):
        header = "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME\n"
        path.write_text(header + "\n".join(",".join(map(str, r)) for r in rows) + "\n")

    def make_rows(self, n=50, with_agent=True, extra_tracks=0):
        rows = []
        for i in range(n):
            t = 1000.0 + 0.1 * i
            if with_agent:
                rows.append((t, "aa", "AGENT", 10.0 + i, 5.0, "PIT"))
            for k in range(extra_tracks):
                rows.append((t, f"t{k}", "OTHERS", 20.0 + i, 8.0 + k, "PIT"))
        return rows

    def test_basic_import(self, tmp_path):
        csv_path = tmp_path / "seq1.csv"
        self.write_csv(csv_path, self.make_rows())
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({
            "PIT": [[[0.0, 0.0], [50.0, 0.0]], [[0.0, 900.0], [50.0, 900.0]]]}))
        out = tmp_path / "out.jsonl"
        assert import_argoverse_csv(csv_path, map_path, out) == 1
        rec = next(load_dataset(out))
        assert rec.main_agent.agent_id == "aa"
        assert rec.main_agent.frames.size == 50
        assert len(rec.map_polylines) == 1  # the far polyline is filtered out
        assert rec.frame_rate == pytest.approx(10.0)

    def test_missing_main_agent(self, tmp_path):
        csv_path = tmp_path / "seq2.csv"
        self.write_csv(csv_path, self.make_rows(with_agent=False, extra_tracks=1))
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
        with pytest.raises(DatasetError, match="seq2.csv: expected exactly one AGENT track, found 0"):
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")

    def test_three_agents(self, tmp_path):
        csv_path = tmp_path / "seq3.csv"
        self.write_csv(csv_path, self.make_rows(extra_tracks=2))
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"PIT": []}))
        out = tmp_path / "o.jsonl"
        import_argoverse_csv(csv_path, map_path, out)
        rec = next(load_dataset(out))
        assert len(rec.agents) == 3
        assert sum(a.is_main for a in rec.agents) == 1

    def test_bad_timestamp_grid(self, tmp_path):
        rows = self.make_rows()
        rows[30] = (rows[30][0] + 0.04,) + rows[30][1:]  # 40% jitter on one stamp
        csv_path = tmp_path / "seq4.csv"
        self.write_csv(csv_path, rows)
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
        with pytest.raises(DatasetError, match="seq4.csv: non-uniform sampling"):
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")

    @pytest.mark.parametrize("column, value", [("X", "abc"), ("Y", "nan"), ("TIMESTAMP", "")])
    def test_bad_csv_number_is_a_schema_error(self, tmp_path, column, value):
        rows = [list(r) for r in self.make_rows()]
        rows[3][{"TIMESTAMP": 0, "X": 3, "Y": 4}[column]] = value   # line 5, after the header
        csv_path = tmp_path / "seq6.csv"
        self.write_csv(csv_path, rows)
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
        with pytest.raises(SchemaError, match=rf"line 5: .*'{column}'.*seq6\.csv") as info:
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")
        assert info.value.field == column

    @pytest.mark.parametrize("poly", [[], [[0.0, 0.0, 1.0]], [[0.0, "a"]], [[0.0, float("nan")]]],
                             ids=["empty", "three-columns", "non-numeric", "nan"])
    def test_bad_map_polyline_is_a_data_error(self, tmp_path, poly):
        csv_path = tmp_path / "seq7.csv"
        self.write_csv(csv_path, self.make_rows())
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"PIT": [[[0.0, 0.0], [50.0, 0.0]], poly]}))
        with pytest.raises(DatasetError, match=r"map\.json: bad polyline PIT\[1\]"):
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")

    def test_directory_without_a_csv_is_a_data_error(self, tmp_path):
        # before, it wrote an empty JSONL and returned 0
        csv_dir = tmp_path / "sequences"
        csv_dir.mkdir()
        (csv_dir / "notes.txt").write_text("no sequences here\n")
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
        out = tmp_path / "o.jsonl"
        with pytest.raises(DatasetError, match=f"^{re.escape(str(csv_dir))}: directory holds "
                                               r"no \*\.csv file$"):
            import_argoverse_csv(csv_dir, map_path, out)
        assert not out.exists()

    def test_directory_imports_each_csv(self, tmp_path):
        csv_dir = tmp_path / "sequences"
        csv_dir.mkdir()
        for name in ("b", "a"):
            self.write_csv(csv_dir / f"{name}.csv", self.make_rows())
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"PIT": []}))
        out = tmp_path / "o.jsonl"
        assert import_argoverse_csv(csv_dir, map_path, out) == 2
        assert [r.scene_id for r in load_dataset(out)] == ["a", "b"]

    @pytest.mark.parametrize("text, error, message", [
        ("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y\n1000.0,aa,AGENT,10,5\n", SchemaError,
         "line 0: bad or missing field 'CITY_NAME' (missing CSV columns in seq.csv)"),
        ("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME\n", DatasetError,
         "seq.csv: empty sequence"),
        ("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME\n1000.0,aa,AGENT,10,5,PIT\n", DatasetError,
         "seq.csv: need at least two timestamps")],
        ids=["no-city-column", "header-only", "one-timestamp"])
    def test_csv_without_a_sequence_is_a_data_error(self, tmp_path, text, error, message):
        csv_path = tmp_path / "seq.csv"
        csv_path.write_text(text)
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
        with pytest.raises(error) as info:
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")
        assert type(info.value) is error and str(info.value) == message

    def test_rows_past_the_horizon_are_dropped(self, tmp_path):
        csv_path = tmp_path / "seq.csv"
        self.write_csv(csv_path, self.make_rows(n=60))
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"PIT": []}))
        out = tmp_path / "o.jsonl"
        assert import_argoverse_csv(csv_path, map_path, out) == 1
        main = next(load_dataset(out)).main_agent
        np.testing.assert_array_equal(main.frames, np.arange(50))
        assert main.xy[-1, 0] == 59.0   # x of row 49, the last one kept

    @pytest.mark.parametrize("text, message", [
        ("{not json", r"map\.json: not valid JSON"),
        ('[["PIT", []]]', r"map\.json: expected an object mapping city name to polylines$"),
        ('{"PIT": {"lane": [[0, 0], [1, 0]]}}', r"map\.json: 'PIT' is not a list of polylines$")],
        ids=["not-json", "list", "city-not-a-list"])
    def test_malformed_map_json_is_a_data_error(self, tmp_path, text, message):
        csv_path = tmp_path / "seq.csv"
        self.write_csv(csv_path, self.make_rows())
        map_path = tmp_path / "map.json"
        map_path.write_text(text)
        with pytest.raises(DatasetError, match=message):
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")
        assert not (tmp_path / "o.jsonl").exists()

    def test_two_timestamps_on_one_frame(self, tmp_path):
        # every step is within 10% of the median 1.0, but 1006.54 and 1007.45
        # both round to frame 7 and frame 6 gets no stamp
        stamps = 1000.0 + np.concatenate([[0.0], np.cumsum([1.09] * 6 + [0.91] * 6)])
        rows = [(round(t, 2), "aa", "AGENT", 10.0 + i, 5.0, "PIT") for i, t in enumerate(stamps)]
        csv_path = tmp_path / "seq5.csv"
        self.write_csv(csv_path, rows)
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
        with pytest.raises(DatasetError, match="seq5.csv: two timestamps round to one frame"):
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")
