import hashlib
import json

import numpy as np
import pytest

from svgnet.dataset import IngestConfig, load_dataset, normalize_sample
from svgnet.metrics import ade, constant_velocity_baseline, fde
from svgnet.synth import (SynthConfig, generate_dataset, generate_records, generate_scene,
                          _cum_lengths, _points_at)


def point_to_polyline_distance(pt, poly):
    best = np.inf
    for a, b in zip(poly[:-1], poly[1:]):
        d = b - a
        t = np.clip(np.dot(pt - a, d) / max(np.dot(d, d), 1e-12), 0.0, 1.0)
        best = min(best, np.linalg.norm(pt - (a + t * d)))
    return best


class TestDeterminism:
    def test_same_seed_same_record(self):
        cfg = SynthConfig(seed=42, n_scenes=4)
        a = generate_scene(cfg, 3)
        b = generate_scene(cfg, 3)
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())

    def test_different_index_different_scene(self):
        cfg = SynthConfig(seed=42, n_scenes=4)
        a = generate_scene(cfg, 0)
        b = generate_scene(cfg, 1)
        assert json.dumps(a.to_json_obj()) != json.dumps(b.to_json_obj())

    def test_dataset_checksum_stable(self, tmp_path):
        cfg = SynthConfig(seed=9, n_scenes=10)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        generate_dataset(cfg, p1)
        generate_dataset(cfg, p2)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2
        manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
        assert manifest["n_scenes"] == 10 and manifest["seed"] == 9
        assert manifest["split_ranges"]["all"] == [0, 10]

    def test_jsonl_line_count(self, tmp_path):
        cfg = SynthConfig(seed=1, n_scenes=10)
        out = tmp_path / "d.jsonl"
        generate_dataset(cfg, out)
        lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
        assert len(lines) == 10
        assert len(list(load_dataset(out))) == 10

    def test_disjoint_index_ranges(self):
        cfg = SynthConfig(seed=5, n_scenes=3)
        train = generate_records(cfg, first_index=0)
        test = generate_records(cfg, first_index=100)
        train_ids = {r.scene_id for r in train}
        assert train_ids.isdisjoint({r.scene_id for r in test})


class TestGeometry:
    def test_main_agent_has_all_frames(self):
        cfg = SynthConfig(seed=3, n_scenes=2)
        rec = generate_scene(cfg, 0)
        assert rec.main_agent.frames.size == 50
        assert (rec.main_agent.frames == np.arange(50)).all()

    def test_agents_on_lane_centerlines(self):
        cfg = SynthConfig(seed=7, n_scenes=6)
        for i in range(6):
            rec = generate_scene(cfg, i)
            for agent in rec.agents:
                dists = []
                for pt in agent.xy:
                    dists.append(min(point_to_polyline_distance(pt, poly)
                                     for poly in rec.map_polylines))
                assert max(dists) <= 0.5, f"scene {i} agent {agent.agent_id}"

    def test_lane_vertex_spacing(self):
        rec = generate_scene(SynthConfig(seed=11, n_scenes=1), 0)
        for poly in rec.map_polylines:
            seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
            assert seg.max() <= 1.0 + 1e-6

    def test_lane_counts_in_range(self):
        cfg = SynthConfig(seed=13, n_scenes=10)
        for i in range(10):
            rec = generate_scene(cfg, i)
            assert 1 <= len(rec.agents) <= max(cfg.agents_max, 2)
            assert len(rec.map_polylines) >= 1

    def test_point_on_polyline(self):
        poly = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(_points_at(poly, np.array([1.5, 9.0])),
                                   [[1.5, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(_cum_lengths(poly), [0.0, 1.0, 2.0])


class TestLearnability:
    def test_futures_not_constant_velocity(self):
        # default config: median CV final error must exceed 1 m
        cfg = SynthConfig(seed=0, n_scenes=40)
        ingest = IngestConfig()
        cv_fdes = []
        for rec in generate_records(cfg):
            s = normalize_sample(rec, ingest)
            pred = constant_velocity_baseline(s.main_history, 30)
            cv_fdes.append(fde(pred, s.target))
        assert float(np.median(cv_fdes)) > 1.0

    def test_straight_noiseless_is_exactly_constant_velocity(self):
        cfg = SynthConfig(seed=2, n_scenes=10, geometry_mix=(1.0, 0.0, 0.0),
                          speed_noise=0.0, lead_probability=0.0)
        ingest = IngestConfig()
        for rec in generate_records(cfg):
            s = normalize_sample(rec, ingest)
            pred = constant_velocity_baseline(s.main_history, 30)
            assert ade(pred, s.target) < 1e-6

    def test_lead_vehicle_forces_deceleration(self):
        cfg = SynthConfig(seed=4, n_scenes=60, geometry_mix=(1.0, 0.0, 0.0),
                          speed_noise=0.0, lead_probability=1.0)
        slowdown = 0
        for rec in generate_records(cfg):
            xy = rec.main_agent.xy
            v_obs = np.linalg.norm(xy[19] - xy[18])
            v_end = np.linalg.norm(xy[49] - xy[48])
            if v_end < 0.8 * v_obs:
                slowdown += 1
        assert slowdown >= 45  # deceleration materializes in most lead scenes

    def test_round_trip_through_jsonl(self, tmp_path):
        cfg = SynthConfig(seed=5, n_scenes=3)
        out = tmp_path / "x.jsonl"
        generate_dataset(cfg, out)
        back = list(load_dataset(out))
        orig = generate_records(cfg)
        for a, b in zip(orig, back):
            np.testing.assert_array_equal(a.main_agent.xy, b.main_agent.xy)
            assert len(a.map_polylines) == len(b.map_polylines)


def test_config_validation():
    with pytest.raises(ValueError, match="geometry_mix"):
        SynthConfig(geometry_mix=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="lead_probability"):
        SynthConfig(lead_probability=1.5)


@pytest.mark.parametrize("n_scenes", [0, -3])
def test_generate_records_without_scenes_is_a_value_error(n_scenes):
    # building the config raises, so no empty record list can come back
    with pytest.raises(ValueError, match="n_scenes and n_frames must be positive"):
        generate_records(SynthConfig(n_scenes=n_scenes))
