import json

import numpy as np
import pytest

from svgnet.dataset import (AgentTrack, BadTimestampGridError, Batch, DatasetError,
                            IngestConfig, InsufficientHistoryError, MissingMainAgentError,
                            MissingTargetError, SceneRecord, SchemaError, apply_affine_points, concat_batches,
                            import_argoverse_csv, load_dataset, make_batch,
                            normalize_sample, polylines_to_svg, save_dataset)
from svgnet.svg import CommandKind, Viewport
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
        good = json.dumps(straight_record().to_json_obj())
        bad = json.dumps({"scene_id": "broken", "frame_rate": 10, "map_polylines": []})
        path = tmp_path / "mixed.jsonl"
        path.write_text(good + "\n" + bad + "\n" + good + "\n")
        errors: list[SchemaError] = []
        records = list(load_dataset(path, errors=errors))
        assert len(records) == 2
        assert len(errors) == 1
        assert errors[0].line_no == 2 and errors[0].field == "agents"

    def test_bad_line_raises_without_collector(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SchemaError):
            list(load_dataset(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(load_dataset(path)) == []

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


class TestPolylinesToSvg:
    VIEW = Viewport((-50.0, -50.0), (100.0, 100.0))

    def test_direct_mapping(self):
        doc, skipped = polylines_to_svg([np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])],
                                        self.VIEW)
        assert skipped == 0
        assert len(doc.paths) == 1
        kinds = [c.kind for c in doc.paths[0].commands]
        assert kinds == [CommandKind.MOVE_TO, CommandKind.LINE_TO, CommandKind.LINE_TO]

    def test_empty_input(self):
        doc, _ = polylines_to_svg([], self.VIEW)
        assert len(doc.paths) == 0

    def test_degenerate_skipped(self):
        doc, skipped = polylines_to_svg([np.array([[0.0, 0.0]])], self.VIEW)
        assert skipped == 1 and len(doc.paths) == 0

    def test_fully_outside_dropped(self):
        far = np.array([[200.0, 200.0], [210.0, 200.0]])
        doc, skipped = polylines_to_svg([far], self.VIEW)
        assert skipped == 0 and len(doc.paths) == 0

    def test_counting_property(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            m = int(rng.integers(2, 20))
            polys = [rng.uniform(-40, 40, (m, 2)) for _ in range(k)]
            doc, _ = polylines_to_svg(polys, self.VIEW, max_commands=30)
            assert len(doc.paths) == k
            assert all(len(p.commands) == m for p in doc.paths)

    def test_line_kinds_only(self, rng):
        polys = [rng.uniform(-40, 40, (int(rng.integers(2, 90)), 2)) for _ in range(5)]
        doc, _ = polylines_to_svg(polys, self.VIEW, max_commands=12)
        for p in doc.paths:
            assert all(c.kind in (CommandKind.MOVE_TO, CommandKind.LINE_TO)
                       for c in p.commands)
            assert len(p.commands) <= 12


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
        with pytest.raises(InsufficientHistoryError):
            normalize_sample(rec, self.CFG)

    def test_no_target_for_short_records(self):
        sample = normalize_sample(straight_record(n_frames=20), self.CFG)
        assert sample.target is None

    @pytest.mark.parametrize("field, value", [("view_extent", 0.0), ("k_heading", 0),
                                              ("k_heading", -3), ("min_heading_disp", -0.1),
                                              ("max_commands", 1)])
    def test_config_validation(self, field, value):
        IngestConfig().validate()
        with pytest.raises(ValueError, match=field):
            IngestConfig(**{field: value}).validate()


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
        with pytest.raises(MissingTargetError, match="'short'"):
            make_batch([full, short], 16, 30, 4)

    def test_take_and_concat(self):
        samples = [normalize_sample(straight_record(scene_id=f"s{i}"), self.CFG)
                   for i in range(4)]
        batch = make_batch(samples, 16, 30, 4)
        taken = batch.take([2, 0])
        assert taken.scene_ids == ["s2", "s0"]
        merged = concat_batches([batch.take([0]), batch.take([1])])
        assert len(merged) == 2
        np.testing.assert_array_equal(merged.main_history[1], batch.main_history[1])


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
        with pytest.raises(MissingMainAgentError):
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")

    def test_three_agents(self, tmp_path):
        csv_path = tmp_path / "seq3.csv"
        self.write_csv(csv_path, self.make_rows(extra_tracks=2))
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
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
        with pytest.raises(BadTimestampGridError):
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

    def test_two_timestamps_on_one_frame(self, tmp_path):
        # every step is within 10% of the median 1.0, but 1006.54 and 1007.45
        # both round to frame 7 and frame 6 gets no stamp
        stamps = 1000.0 + np.concatenate([[0.0], np.cumsum([1.09] * 6 + [0.91] * 6)])
        rows = [(round(t, 2), "aa", "AGENT", 10.0 + i, 5.0, "PIT") for i, t in enumerate(stamps)]
        csv_path = tmp_path / "seq5.csv"
        self.write_csv(csv_path, rows)
        map_path = tmp_path / "map.json"
        map_path.write_text("{}")
        with pytest.raises(BadTimestampGridError, match="one frame"):
            import_argoverse_csv(csv_path, map_path, tmp_path / "o.jsonl")
