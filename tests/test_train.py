import math

import numpy as np
import pytest

from model_helpers import tiny_config
from svgnet import tensor as T
from svgnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from svgnet.dataset import IngestConfig
from svgnet.gradcheck import grad_check
from svgnet.model import SvgNet
from svgnet.synth import SynthConfig, generate_records
from svgnet.tensor import GradientTape, Parameter, ShapeMismatchError
from svgnet.train import AdamW, TrainConfig, lr_at, mse_loss, train


class TestMseLoss:
    def test_zero_when_equal(self):
        pred = Parameter("p", np.zeros((2, 60)))
        assert mse_loss(pred, np.zeros((2, 60))).item() == 0.0

    def test_unit_offset_every_step(self):
        target = np.zeros((1, 60))
        pred_arr = np.zeros((1, 60))
        pred_arr[0, 0::2] = 1.0  # x off by 1 on each of the 30 steps
        assert mse_loss(Parameter("p", pred_arr), target).item() == pytest.approx(30.0)

    def test_three_four_offset(self):
        target = np.zeros((1, 60))
        pred_arr = np.zeros((1, 60))
        pred_arr[0, 0::2] = 3.0
        pred_arr[0, 1::2] = 4.0
        assert mse_loss(Parameter("p", pred_arr), target).item() == pytest.approx(750.0)

    def test_batch_mean(self):
        target = np.zeros((2, 60))
        pred_arr = np.zeros((2, 60))
        pred_arr[0, 0::2] = 1.0
        assert mse_loss(Parameter("p", pred_arr), target).item() == pytest.approx(15.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mse_loss(Parameter("p", np.zeros((1, 60))), np.zeros((1, 59)))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        pred = Parameter("p", rng.normal(0, 2, (3, 60)))
        target = rng.normal(0, 2, (3, 60))
        err = grad_check(lambda: mse_loss(pred, target), [pred],
                         max_coords_per_param=30)
        assert err < 1e-6


class TestSchedule:
    def test_decay_points(self):
        cfg = TrainConfig(lr=1e-4, lr_decay=0.9, lr_decay_epochs=2.5)
        spe = 4  # 2.5 epochs == 10 steps exactly
        for epoch, k in ((0, 0), (2.5, 1), (5, 2), (20, 8)):
            step = int(epoch * spe)
            assert abs(lr_at(step, cfg, spe) - 1e-4 * 0.9 ** k) < 1e-12

    def test_pure_function_of_step(self):
        cfg = TrainConfig()
        spe = 7
        period = math.ceil(2.5 * 7)
        assert lr_at(period - 1, cfg, spe) == cfg.lr
        assert lr_at(period, cfg, spe) == cfg.lr * 0.9


class TestAdamW:
    def test_zero_grad_zero_decay_no_change(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.0))
        before = p.data.copy()
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_direction_and_size(self):
        p = Parameter("p", np.array([1.0]))
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.0))
        with GradientTape() as tape:
            loss = T.tsum(T.mul(p, p))
            tape.backward(loss)
        opt.step(lr=0.1)
        delta = p.data[0] - 1.0
        assert delta < 0
        assert abs(delta) <= 0.1 * (1.0 + 1e-6)
        # first bias-corrected Adam step is ~lr for any nonzero gradient
        assert abs(delta) == pytest.approx(0.1, rel=1e-4)

    def test_decoupled_weight_decay(self):
        p = Parameter("p", np.array([4.0]))
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.5))
        opt.step(lr=0.1)  # zero gradient: only decay applies
        np.testing.assert_allclose(p.data, [4.0 * (1 - 0.1 * 0.5)])

    def test_state_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        p = Parameter("p", rng.normal(size=(3, 2)).astype(np.float32))
        opt = AdamW({"p": p}, TrainConfig())
        p.grad = rng.normal(size=(3, 2)).astype(np.float32)
        opt.step(lr=1e-3)
        save_checkpoint(opt.state_arrays(), tmp_path / "opt")
        opt2 = AdamW({"p": p}, TrainConfig())
        opt2.load_state(load_checkpoint(tmp_path / "opt"))
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = SvgNet(tiny_config(), seed=0)
        save_checkpoint(model.state_arrays(), tmp_path / "m")
        arrays = load_checkpoint(tmp_path / "m")
        for name, p in model.parameters().items():
            assert (arrays[name] == p.data).all()
        model2 = SvgNet(tiny_config(), seed=99)
        model2.load_state(arrays)
        for name, p in model2.parameters().items():
            assert (p.data == model.params[name].data).all()

    def test_manifest_schema(self, tmp_path):
        import json
        save_checkpoint({"a": np.zeros((2, 3), np.float32),
                         "b": np.ones(4, np.float32)}, tmp_path / "c")
        manifest = json.loads((tmp_path / "c.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["params"][0] == {"name": "a", "shape": [2, 3], "offset": 0}
        assert manifest["params"][1] == {"name": "b", "shape": [4], "offset": 6}
        blob = (tmp_path / "c.bin").read_bytes()
        assert len(blob) == (6 + 4) * 4


    def test_dotted_names_do_not_collide(self, tmp_path):
        save_checkpoint({"a": np.zeros(2, np.float32)}, tmp_path / "run.v1")
        save_checkpoint({"a": np.ones(3, np.float32)}, tmp_path / "run.v2")
        assert (tmp_path / "run.v1.json").exists() and (tmp_path / "run.v2.bin").exists()
        np.testing.assert_array_equal(load_checkpoint(tmp_path / "run.v1")["a"], np.zeros(2))
        np.testing.assert_array_equal(load_checkpoint(tmp_path / "run.v2")["a"], np.ones(3))

    @pytest.mark.parametrize("size_change", [8, 3, -4])
    def test_blob_size_must_match_manifest(self, tmp_path, size_change):
        save_checkpoint({"a": np.ones((2, 3), np.float32)}, tmp_path / "c")
        blob = tmp_path / "c.bin"
        data = blob.read_bytes()
        blob.write_bytes(data + b"\0" * size_change if size_change > 0
                         else data[:size_change])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "c")


class TestTrainingLoop:
    def make_records(self, n=8):
        cfg = SynthConfig(seed=0, n_scenes=n, agents_max=2, lanes_max=3)
        return generate_records(cfg)

    def test_deterministic_runs(self, tmp_path):
        records = self.make_records(6)
        ingest = IngestConfig(max_commands=6)
        tc = TrainConfig(epochs=2, batch_size=3, seed=7)
        outs = []
        for name in ("run1", "run2"):
            model = SvgNet(tiny_config(), seed=7)
            train(model, records, tc, ingest=ingest, out_dir=tmp_path / name)
            outs.append((tmp_path / name / "model_final.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_loss_decreases_on_fixed_batch(self):
        records = self.make_records(4)
        ingest = IngestConfig(max_commands=6)
        model = SvgNet(tiny_config(), seed=1)
        log = train(model, records, TrainConfig(epochs=25, batch_size=4, lr=1e-4, seed=0),
                    ingest=ingest)
        losses = [e["loss"] for e in log if e["loss"] is not None]
        assert np.isfinite(losses).all()
        # fixed batch, small lr: loss non-increasing nearly everywhere
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-9)
        assert drops >= 0.95 * (len(losses) - 1)
        assert losses[-1] < losses[0]

    def test_checkpoints_and_log_written(self, tmp_path):
        records = self.make_records(4)
        model = SvgNet(tiny_config(), seed=2)
        log = train(model, records, TrainConfig(epochs=2, batch_size=2, seed=0),
                    ingest=IngestConfig(max_commands=6), out_dir=tmp_path,
                    eval_hook=lambda m: (1.5, 2.5))
        assert (tmp_path / "model_epoch000.json").exists()
        assert (tmp_path / "model_final.bin").exists()
        assert (tmp_path / "optimizer_final.json").exists()
        assert (tmp_path / "loss_log.jsonl").exists()
        val_entries = [e for e in log if e["val_ade"] is not None]
        assert len(val_entries) == 2
        assert val_entries[0]["val_fde"] == 2.5
