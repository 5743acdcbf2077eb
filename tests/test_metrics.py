import csv
import dataclasses

import numpy as np
import pytest

from svgnet import metrics
from svgnet.dataset import AgentTrack, DatasetError, IngestConfig, apply_affine_points, \
    concat_batches, make_batch, normalize_sample
from svgnet.metrics import (MetricsReport, ade, constant_velocity_baseline,
                            constant_velocity_predictor, evaluate, fde, miss_rate,
                            model_predictor, write_per_sample_csv)
from svgnet.model import SvgNet
from svgnet.synth import SynthConfig, generate_records
from model_helpers import tiny_config

T30 = 30


def traj(offsets):
    out = np.zeros((T30, 2))
    out += np.asarray(offsets)
    return out


class TestAde:
    def test_zero(self):
        gt = np.arange(60.0).reshape(30, 2)
        assert ade(gt, gt) == 0.0

    def test_constant_offset(self):
        gt = np.zeros((30, 2))
        assert ade(traj((3.0, 4.0)), gt) == pytest.approx(5.0, abs=1e-9)

    def test_single_step_offset(self):
        gt = np.zeros((30, 2))
        pred = np.zeros((30, 2))
        pred[29, 0] = 1.0
        assert ade(pred, gt) == pytest.approx(1.0 / 30.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"trajectory shapes differ: \(30, 2\) vs \(29, 2\)"):
            ade(np.zeros((30, 2)), np.zeros((29, 2)))


class TestFde:
    def test_zero(self):
        gt = np.arange(60.0).reshape(30, 2)
        assert fde(gt, gt) == 0.0

    def test_final_offset(self):
        gt = np.zeros((30, 2))
        pred = np.zeros((30, 2))
        pred[29] = (0.0, 2.0)
        assert fde(pred, gt) == pytest.approx(2.0, abs=1e-9)

    def test_intermediate_offsets_ignored(self):
        gt = np.zeros((30, 2))
        pred = np.zeros((30, 2))
        pred[:29] = (9.0, 9.0)
        assert fde(pred, gt) == 0.0


class TestMissRate:
    def test_half(self):
        assert miss_rate([1.0, 3.0]) == 0.5

    def test_exactly_two_is_not_a_miss(self):
        assert miss_rate([2.0]) == 0.0

    def test_all_miss(self):
        assert miss_rate([5.0, 5.0, 5.0]) == 1.0

    def test_empty(self):
        with pytest.raises(ValueError, match="miss_rate needs at least one sample"):
            miss_rate([])


class TestConstantVelocity:
    def test_unit_speed_line(self):
        hist = np.stack([np.zeros(20), np.arange(-10.0, 10.0)], axis=1)
        pred = constant_velocity_baseline(hist, 30)
        np.testing.assert_allclose(pred[:, 1], np.arange(10.0, 40.0), atol=1e-12)
        np.testing.assert_allclose(pred[:, 0], 0.0, atol=1e-12)

    def test_stationary(self):
        hist = np.tile([2.0, 3.0], (20, 1))
        pred = constant_velocity_baseline(hist, 30)
        np.testing.assert_allclose(pred, np.tile([2.0, 3.0], (30, 1)), atol=1e-12)

    def test_exact_on_straight_line(self):
        hist = np.stack([np.arange(20.0) * 0.3, np.arange(20.0) * -0.4], axis=1)
        gt = np.stack([np.arange(20.0, 50.0) * 0.3, np.arange(20.0, 50.0) * -0.4], axis=1)
        assert ade(constant_velocity_baseline(hist, 30), gt) < 1e-9

    def test_insufficient_history(self):
        with pytest.raises(DatasetError, match="need at least 2 observed frames"):
            constant_velocity_baseline(np.zeros((1, 2)), 30)


class TestRigidInvariance:
    def test_metrics_invariant_under_rigid_transform(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(0, 5, (30, 2))
        gt = rng.normal(0, 5, (30, 2))
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([100.0, -40.0])
        p2, g2 = pred @ rot.T + shift, gt @ rot.T + shift
        assert abs(ade(pred, gt) - ade(p2, g2)) < 1e-9
        assert abs(fde(pred, gt) - fde(p2, g2)) < 1e-9

    def test_single_step_ade_equals_fde(self):
        pred = np.array([[1.0, 2.0]])
        gt = np.array([[4.0, 6.0]])
        assert ade(pred, gt) == fde(pred, gt) == pytest.approx(5.0)


class TestEvaluate:
    def records(self, n=6):
        return generate_records(SynthConfig(seed=1, n_scenes=n, agents_max=3, lanes_max=3))

    def test_oracle_all_zero(self):
        report = evaluate(lambda b: b.targets.copy(), self.records(), ingest=IngestConfig(),
                          caps=(16, 30, 4))
        assert report.ade == 0.0 and report.fde == 0.0 and report.miss_rate == 0.0
        assert report.n_samples == 6

    def test_no_records_is_an_error(self):
        with pytest.raises(ValueError, match="no samples evaluated"):
            evaluate(constant_velocity_predictor(30), [], ingest=IngestConfig(), caps=(16, 30, 4))

    def test_order_invariance(self):
        recs = self.records()
        a = evaluate(constant_velocity_predictor(30), recs, ingest=IngestConfig(), caps=(16, 30, 4))
        b = evaluate(constant_velocity_predictor(30), recs[::-1], ingest=IngestConfig(),
                     caps=(16, 30, 4))
        assert a.ade == pytest.approx(b.ade, abs=1e-12)

    def test_cv_positive_on_curved_scenes(self):
        report = evaluate(constant_velocity_predictor(30), self.records(10), ingest=IngestConfig(),
                          caps=(16, 30, 4))
        assert report.ade > 0.0

    def test_city_frame_equals_normalized_frame(self):
        recs = self.records(4)
        ingest = IngestConfig()
        report = evaluate(constant_velocity_predictor(30), recs, ingest=ingest, caps=(16, 30, 4))
        manual = []
        for rec in recs:
            s = normalize_sample(rec, ingest)
            manual.append(ade(constant_velocity_baseline(s.main_history, 30), s.target))
        assert report.ade == pytest.approx(float(np.mean(manual)), abs=1e-6)

    def test_encodes_one_chunk_at_a_time_and_matches_a_hand_chunked_reference(
            self, monkeypatch):
        monkeypatch.setattr(metrics, "EVAL_BATCH_SIZE", 4)
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        recs = self.records(10)
        ingest, caps = cfg.ingest, cfg.caps
        n_encoded, chunks = [], []
        monkeypatch.setattr(metrics, "make_batch",
                            lambda *a: n_encoded.append(1) or make_batch(*a))

        def predict(batch):
            chunks.append((len(n_encoded), batch.scene_ids))
            return model.predict(batch)

        report = evaluate(predict, recs, ingest=ingest, caps=caps, per_sample=True)
        ids = [r.scene_id for r in recs]
        assert chunks == [(4, ids[0:4]), (8, ids[4:8]), (10, ids[8:10])]

        rows = []
        for lo in (0, 4, 8):
            batch = concat_batches([make_batch([normalize_sample(r, ingest)], *caps)
                                    for r in recs[lo:lo + 4]])
            preds = model.predict(batch)
            for i in range(len(batch)):
                to_city = batch.frame_to_city[i]
                pred = apply_affine_points(to_city, preds[i].reshape(-1, 2).astype(np.float64))
                gt = apply_affine_points(to_city, batch.targets[i].reshape(-1, 2))
                f = fde(pred, gt)
                rows.append({"scene_id": batch.scene_ids[i], "ade": ade(pred, gt), "fde": f,
                             "miss": bool(f > metrics.MISS_THRESHOLD)})
        fdes = [r["fde"] for r in rows]
        assert report == MetricsReport(ade=float(np.mean([r["ade"] for r in rows])),
                                       fde=float(np.mean(fdes)), miss_rate=miss_rate(fdes),
                                       n_samples=10, per_sample=rows)

    def test_missing_target_in_the_last_chunk_names_its_scene(self, monkeypatch):
        monkeypatch.setattr(metrics, "EVAL_BATCH_SIZE", 4)
        recs = self.records(10)
        last = recs[-1]
        cut = [AgentTrack(a.agent_id, a.frames[:20], a.xy[:20], is_main=True) if a.is_main
               else a for a in last.agents]
        recs[-1] = dataclasses.replace(last, scene_id="no target", agents=cut)
        with pytest.raises(DatasetError, match="'no target' has no prediction target"):
            evaluate(constant_velocity_predictor(30), recs, ingest=IngestConfig(),
                     caps=(16, 30, 4))

    def test_model_predictor_and_per_sample(self, tmp_path):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        recs = self.records(3)
        report = evaluate(model_predictor(model), recs, ingest=cfg.ingest, caps=cfg.caps,
                          per_sample=True)
        assert report.n_samples == 3
        assert len(report.per_sample) == 3
        assert np.isfinite(report.ade)
        write_per_sample_csv(report, tmp_path / "per.csv")
        lines = (tmp_path / "per.csv").read_text().splitlines()
        assert lines[0] == "scene_id,ade,fde,miss"
        assert len(lines) == 4
        report.write_json(tmp_path / "r.json")
        import json
        obj = json.loads((tmp_path / "r.json").read_text())
        assert set(obj) >= {"ade", "fde", "miss_rate", "n_samples"}

    def test_a_nan_in_the_report_is_an_error_not_a_bare_nan(self, tmp_path):
        report = MetricsReport(ade=float("nan"), fde=1.0, miss_rate=0.0, n_samples=1)
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.write_json(tmp_path / "r.json")
        assert list(tmp_path.iterdir()) == []

    def test_per_sample_csv_round_trips_any_scene_id(self, tmp_path):
        ids = ['x,"y', "line\nbreak", "plain"]
        rows = [{"scene_id": sid, "ade": 0.5 * k, "fde": 1.0 / 3.0, "miss": k == 1}
                for k, sid in enumerate(ids)]
        report = MetricsReport(ade=0.5, fde=1.0 / 3.0, miss_rate=1 / 3, n_samples=3,
                               per_sample=rows)
        write_per_sample_csv(report, tmp_path / "per.csv")
        with open(tmp_path / "per.csv", newline="", encoding="utf-8") as fh:
            back = list(csv.reader(fh))
        assert back[0] == ["scene_id", "ade", "fde", "miss"]
        assert [r[0] for r in back[1:]] == ids
        assert [float(r[2]) for r in back[1:]] == [1.0 / 3.0] * 3
        assert [r[3] for r in back[1:]] == ["0", "1", "0"]
