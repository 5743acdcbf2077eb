import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from model_helpers import random_batch, take_batch, tiny_config
from svgnet import tensor as T
from svgnet.checkpoint import load_checkpoint, save_checkpoint
from svgnet.dataset import DatasetError, _atomic_write, save_dataset
from svgnet.gradcheck import grad_check
from svgnet.model import SvgNet
from svgnet.synth import SynthConfig, generate_records
from svgnet.tensor import GradientTape, Parameter
from svgnet import train as train_module
from svgnet.train import (AdamW, NonFiniteLossError, TrainConfig,
                          encode_samples, lr_at, mse_loss, release_free_heap, train,
                          write_loss_log)


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
        with pytest.raises(ValueError, match=r"pred \(1, 60\) vs target \(1, 59\)"):
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
        cfg = TrainConfig(lr=1e-4, lr_decay_epochs=2.5)
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
        opt.step({}, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_direction_and_size(self):
        p = Parameter("p", np.array([1.0]))
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.0))
        with GradientTape() as tape:
            loss = T.tsum(T.mul(p, p))
            grads = tape.backward(loss)
        opt.step(grads, lr=0.1)
        delta = p.data[0] - 1.0
        assert delta < 0
        assert abs(delta) <= 0.1 * (1.0 + 1e-6)
        # first bias-corrected Adam step is ~lr for any nonzero gradient
        assert abs(delta) == pytest.approx(0.1, rel=1e-4)

    def test_decoupled_weight_decay(self):
        p = Parameter("p", np.array([4.0]))
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.5))
        opt.step({}, lr=0.1)  # zero gradient: only decay applies
        np.testing.assert_allclose(p.data, [4.0 * (1 - 0.1 * 0.5)])

    def test_state_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        p = Parameter("p", rng.normal(size=(3, 2)).astype(np.float32))
        opt = AdamW({"p": p}, TrainConfig())
        opt.step({p: rng.normal(size=(3, 2)).astype(np.float32)}, lr=1e-3)
        save_checkpoint(opt.live_state(), tmp_path / "opt")
        opt2 = AdamW({"p": p}, TrainConfig())
        opt2.load_state(load_checkpoint(tmp_path / "opt"))
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])


    def test_step_reads_the_gradients_only(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        g = np.array([0.5, 0.25])
        grads = {p: g}
        AdamW({"p": p}, TrainConfig()).step(grads, lr=0.1)
        assert list(grads) == [p] and grads[p] is g
        np.testing.assert_array_equal(g, [0.5, 0.25])

    def test_state_before_the_first_step_is_zero(self):
        p = Parameter("p", np.ones((3, 2), dtype=np.float32))
        state = AdamW({"p": p}, TrainConfig()).live_state()
        assert list(state) == ["m.p", "v.p", "step"]
        assert not state["m.p"].any() and not state["v.p"].any() and state["step"][0] == 0
        assert state["m.p"].dtype == np.float32


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
        with pytest.raises(DatasetError, match=r"c\.bin holds \d+ bytes, the manifest needs 24$"):
            load_checkpoint(tmp_path / "c")

    @pytest.mark.parametrize("arr", [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.linspace(-1, 1, 12).reshape(3, 4),
        np.arange(12, dtype=np.float32).reshape(3, 4).T,
        np.arange(12, dtype=">f4").reshape(3, 4)],
        ids=["float32", "float64", "transposed", "big-endian"])
    def test_streamed_blob_equals_tobytes(self, tmp_path, arr):
        head = np.ones(5, np.float32)
        save_checkpoint({"head": head, "x": arr}, tmp_path / "c")
        expected = head.tobytes() + np.ascontiguousarray(arr, dtype="<f4").tobytes()
        assert (tmp_path / "c.bin").read_bytes() == expected
        np.testing.assert_array_equal(load_checkpoint(tmp_path / "c")["x"], arr.astype("<f4"))

    def test_chunk_that_raises_leaves_no_file(self, tmp_path):
        def chunks():
            yield b"first"
            raise RuntimeError("conversion failed")
        with pytest.raises(RuntimeError):
            _atomic_write(tmp_path / "out.bin", chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_written_files_get_the_umask_mode(self, tmp_path, umask, mode):
        # before, every written file was 0600 whatever the umask
        old = os.umask(umask)
        try:
            save_dataset(generate_records(SynthConfig(n_scenes=1)), tmp_path / "d.jsonl")
            save_checkpoint({"a": np.ones(3, np.float32)}, tmp_path / "c")
        finally:
            os.umask(old)
        for name in ("d.jsonl", "c.bin", "c.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name

    def test_unconvertible_array_writes_neither_file(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint({"a": np.ones(3, np.float32), "b": np.array(["x"])}, tmp_path / "c")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("params", [
        [{"name": "a", "shape": [-4], "offset": 0}, {"name": "b", "shape": [10], "offset": 0}],
        [{"name": "a", "shape": [2.5], "offset": 0}, {"name": "b", "shape": [10], "offset": 0}],
        [{"name": "a", "shape": [6], "offset": "0"}, {"name": "b", "shape": [4], "offset": 6}],
        [{"name": "a", "shape": [6], "offset": 0}, {"name": "b", "shape": [4], "offset": 4},
         {"name": "c", "shape": [2], "offset": 8}]],
        ids=["negative-dim", "fractional-dim", "string-offset", "overlap"])
    def test_manifest_entries_must_tile_the_blob(self, tmp_path, params):
        # before, the negative dim and the overlap loaded silently as wrong
        # arrays, and the other two raised an untyped TypeError
        save_checkpoint({"a": np.arange(6, dtype=np.float32), "b": np.ones(4, np.float32)},
                        tmp_path / "c")
        (tmp_path / "c.json").write_text(json.dumps({"format_version": 1, "params": params}))
        with pytest.raises(DatasetError, match="c.json: entry"):
            load_checkpoint(tmp_path / "c")

    def test_a_name_listed_twice_is_rejected(self, tmp_path):
        # before, {"a": [3.0]} loaded and the first entry's floats were dropped
        save_checkpoint({"a": np.ones(1, np.float32), "b": np.full(1, 3.0, np.float32)},
                        tmp_path / "c")
        manifest = json.loads((tmp_path / "c.json").read_text())
        manifest["params"][1]["name"] = "a"
        (tmp_path / "c.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="c.json: entry 'a' is listed twice"):
            load_checkpoint(tmp_path / "c")

    def test_an_unsupported_version_names_the_file(self, tmp_path):
        save_checkpoint({"a": np.ones(1, np.float32)}, tmp_path / "c")
        manifest = json.loads((tmp_path / "c.json").read_text())
        (tmp_path / "c.json").write_text(json.dumps({**manifest, "format_version": 2}))
        with pytest.raises(DatasetError, match=r"^c\.json: unsupported checkpoint version 2$"):
            load_checkpoint(tmp_path / "c")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_names_its_entry(self, tmp_path, value):
        # before, a NaN weight loaded, and eval scored every scene NaN with a 0.0 miss rate
        save_checkpoint({"a": np.ones(3, np.float32), "b": np.array([1.0, value, 2.0])},
                        tmp_path / "c")
        with pytest.raises(DatasetError, match=r"^c\.bin: entry 'b' holds a non-finite value$"):
            load_checkpoint(tmp_path / "c")


class TestTrainingLoop:
    def make_batches(self, n=8):
        cfg = SynthConfig(seed=0, n_scenes=n, agents_max=2, lanes_max=3)
        return encode_samples(generate_records(cfg), tiny_config())

    def test_deterministic_runs(self, tmp_path):
        batches = self.make_batches(6)
        tc = TrainConfig(epochs=2, batch_size=3, seed=7)
        outs = []
        for name in ("run1", "run2"):
            model = SvgNet(tiny_config(), seed=7)
            train(model, batches, tc, out_dir=tmp_path / name)
            outs.append((tmp_path / name / "model_final.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_frees_the_optimizer_then_releases_the_heap_once(self, monkeypatch):
        optimizers, released = [], []

        class RecordedAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(weakref.ref(self))

        monkeypatch.setattr(train_module, "AdamW", RecordedAdamW)
        monkeypatch.setattr(train_module, "release_free_heap",
                            lambda: released.append(optimizers[0]() is None))
        train(SvgNet(tiny_config(), seed=0), self.make_batches(4),
              TrainConfig(epochs=2, batch_size=2, seed=0))
        assert len(optimizers) == 1 and released == [True]

    def test_no_samples_is_an_error_before_any_write(self, tmp_path):
        with pytest.raises(ValueError, match="no samples to train on"):
            train(SvgNet(tiny_config()), [], TrainConfig(), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_hist_step_only_decays_the_scene_encoder(self):
        cfg = tiny_config(input_mode="hist")
        batches = self.make_batches(4)
        model = SvgNet(cfg, seed=3)
        scene = {n: p for n, p in model.parameters().items() if n.startswith("scene_encoder.")}
        with GradientTape() as tape:
            grads = tape.backward(mse_loss(model.forward(batches[0])[0], batches[0].targets))
        assert scene and not set(scene.values()) & set(grads)
        tc = TrainConfig(epochs=1, batch_size=4, lr=1e-3, weight_decay=0.25, seed=0)
        before = model.state_arrays()
        train(model, batches, tc)
        for n, p in scene.items():
            assert np.array_equal(p.data, before[n] * (1.0 - tc.lr * tc.weight_decay)), n
        assert any(not np.array_equal(before[n], p.data) for n, p in scene.items())

    def test_loss_decreases_on_fixed_batch(self):
        batches = self.make_batches(4)
        model = SvgNet(tiny_config(), seed=1)
        log = train(model, batches, TrainConfig(epochs=25, batch_size=4, lr=1e-4, seed=0))
        losses = [e["loss"] for e in log]
        assert np.isfinite(losses).all()
        # fixed batch, small lr: loss non-increasing nearly everywhere
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-9)
        assert drops >= 0.95 * (len(losses) - 1)
        assert losses[-1] < losses[0]

    def test_checkpoints_and_log_written(self, tmp_path):
        model = SvgNet(tiny_config(), seed=2)
        log = train(model, self.make_batches(4), TrainConfig(epochs=2, batch_size=2, seed=0),
                    out_dir=tmp_path)
        assert (tmp_path / "model_epoch000.json").exists()
        assert (tmp_path / "model_final.bin").exists()
        assert (tmp_path / "optimizer_final.json").exists()
        lines = (tmp_path / "loss_log.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == log
        assert [(e["epoch"], e["step"]) for e in log] == [(0, 0), (0, 1), (1, 2), (1, 3)]

    def test_non_finite_gradient_stops_training_before_the_update(self, tmp_path, monkeypatch):
        backward, returned = GradientTape.backward, []

        def recorded_backward(tape, loss):
            returned.append(backward(tape, loss))
            return returned[-1]
        monkeypatch.setattr(GradientTape, "backward", recorded_backward)
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 2, np.random.default_rng(1))
        params = model.parameters()
        # a near-zero head.l2 and a huge head.l3 give |pred| ~ 1e17: the loss
        # (~1e35) is finite in float32, but backward overflows
        params["decoder.head.l2.w"].data *= 1e-15
        params["decoder.head.l2.b"].data[:] = 0.0
        params["decoder.head.l3.w"].data *= 1e17 / np.abs(model.predict(batch)).max()
        before = model.state_arrays()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match=r"^step 0 \(epoch 0\): gradient of ") as err:
                train(model, [take_batch(batch, [0]), take_batch(batch, [1])],
                      TrainConfig(epochs=1, batch_size=2), out_dir=tmp_path / "run")
        name = re.search(r"gradient of '(.+)' is not finite", str(err.value)).group(1)
        names = list(params)
        (grads,) = returned
        assert all(np.isfinite(grads[params[n]]).all() for n in names[:names.index(name)])
        assert not np.isfinite(grads[params[name]]).all()
        assert all((p.data == before[n]).all() for n, p in params.items())
        assert not (tmp_path / "run").exists()

    def test_a_nan_in_the_loss_log_is_an_error_not_a_bare_nan(self, tmp_path):
        entry = {"epoch": 0, "step": 0, "lr": 1e-4, "loss": float("nan")}
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_loss_log([entry], tmp_path / "loss_log.jsonl")
        assert list(tmp_path.iterdir()) == []


_PINNED_HEAP = """
import os
import numpy as np
from svgnet.train import release_free_heap

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

# 100 KB blocks stay below glibc's mmap threshold; every other one is
# kept, so the freed ones lie between live blocks and cannot reach the top
blocks = [np.ones(100_000, dtype=np.uint8) for _ in range(600)]
pins = blocks[::2]
del blocks
before = rss()
release_free_heap()
after = rss()
# checked after the measurement: each sum's cast buffer is malloc'd and
# may fault a released free chunk back in
assert all(p.sum() == 100_000 for p in pins)
print(before - after)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or train_module._MALLOC_TRIM is None,
                    reason="needs glibc's malloc_trim and /proc")
def test_release_free_heap_returns_pages_that_live_chunks_pin():
    src = str(Path(train_module.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _PINNED_HEAP], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert int(out.stdout) > 15 * 2**20
