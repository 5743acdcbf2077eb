import numpy as np
import pytest

from model_helpers import random_batch, tiny_config
from svgnet import model as model_module
from svgnet import tensor as T
from svgnet.dataset import IngestConfig, make_batch, normalize_sample
from svgnet.gradcheck import grad_check
from svgnet.model import (ModelConfig, RecordingDisabledError, SvgNet, extract_attention,
                          sinusoidal_encoding)
from svgnet.svg import CommandKind
from svgnet.synth import SynthConfig, generate_records
from svgnet.tensor import GradientTape, Tensor
from svgnet.train import mse_loss


def permute_batch(batch, path_perm, agent_perm):
    out = batch.take(np.arange(len(batch)))
    out.command_kinds = out.command_kinds[:, path_perm]
    out.command_args = out.command_args[:, path_perm]
    out.path_mask = out.path_mask[:, path_perm]
    out.command_mask = out.command_mask[:, path_perm]
    out.agent_histories = out.agent_histories[:, agent_perm]
    out.agent_mask = out.agent_mask[:, agent_perm]
    out.path_ids = [[None] * out.path_mask.shape[1]] * len(out)
    out.agent_ids = [[None] * out.agent_mask.shape[1]] * len(out)
    return out


def path_rows(batch):
    """The real paths' command rows of a batch, as the scene encoder takes them."""
    real = batch.path_mask > 0
    return batch.command_kinds[real], batch.command_args[real], batch.command_mask[real]


class TestEncoders:
    def test_duplicate_paths_equal_latents(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 1, rng, n_real_paths=2, n_real_agents=0)
        batch.command_kinds[0, 1] = batch.command_kinds[0, 0]
        batch.command_args[0, 1] = batch.command_args[0, 0]
        batch.command_mask[0, 1] = batch.command_mask[0, 0]
        latents = model.scene_encoder(*path_rows(batch)).data
        assert latents.shape == (2, cfg.d_z)
        np.testing.assert_allclose(latents[0], latents[1], atol=1e-6)

    def test_scene_encoder_permutation_equivariance(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=1)
        rows = path_rows(random_batch(cfg, 2, rng))
        perm = rng.permutation(len(rows[0]))
        base = model.scene_encoder(*rows).data
        out = model.scene_encoder(*(x[perm] for x in rows)).data
        np.testing.assert_allclose(out, base[perm], atol=1e-6)

    def test_history_encoder_deterministic_and_finite(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        h = rng.normal(0, 5, (2, cfg.d_h)).astype(np.float32)
        a = model.history_encoder(Tensor(h)).data
        b = model.history_encoder(Tensor(h.copy())).data
        assert (a == b).all()
        z = model.history_encoder(Tensor(np.zeros((1, cfg.d_h), np.float32))).data
        assert np.isfinite(z).all()
        assert a.shape == (2, cfg.d_z)

    def test_history_encoder_gradient(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0, dtype=np.float64)
        h = T.Tensor(rng.normal(0, 1, (1, cfg.d_h)), requires_grad=True)
        mix = rng.normal(size=(1, cfg.d_z))
        err = grad_check(lambda: T.tsum(T.mul(model.history_encoder(h), Tensor(mix))), [h])
        assert err < 1e-4


class TestForward:
    def test_output_shape_and_finite(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 5, rng)
        pred, rec = model.forward(batch)
        assert pred.shape == (5, cfg.d_out)
        assert np.isfinite(pred.data).all()
        assert rec is None

    def test_hist_only_ignores_scene_and_agents(self, rng):
        cfg = tiny_config(input_mode="hist")
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 3, rng)
        base = model.predict(batch)
        mutated = batch.take(np.arange(3))
        mutated.command_kinds = rng.integers(2, 6, mutated.command_kinds.shape).astype(np.int16)
        mutated.command_args = rng.integers(0, 256, mutated.command_args.shape).astype(np.int16)
        mutated.agent_histories = rng.normal(0, 9, mutated.agent_histories.shape)
        assert (model.predict(mutated) == base).all()

    def test_permutation_invariance(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=2)
        batch = random_batch(cfg, 4, rng)
        base = model.predict(batch)
        for _ in range(5):
            perm_b = permute_batch(batch, rng.permutation(cfg.n_paths),
                                   rng.permutation(cfg.n_agents))
            np.testing.assert_allclose(model.predict(perm_b), base, atol=1e-5)

    def test_masked_mutation_bit_identical_f64(self, rng, monkeypatch):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=3, dtype=np.float64)
        # a non-zero pool bias makes every encoded path latent non-zero, so
        # only the fusion key mask keeps the empty places out of the prediction
        model.scene_encoder.pool.b.data[:] = rng.normal(0, 1, cfg.d_z)
        batch = random_batch(cfg, 2, rng, n_real_paths=2, n_real_agents=1)
        batch.path_mask[1, 1] = 0.0   # sample 1 keeps one real path: one empty place
        batch.command_mask[1, 1] = 0.0
        place = model_module._place
        placed = []

        def spy_place(rows, where):
            placed.append(place(rows, where))
            return placed[-1]

        monkeypatch.setattr(model_module, "_place", spy_place)
        base = model.predict(batch)
        latents = placed[0].data   # the paths are placed first, then the agents
        empty = np.array([[False, False], [False, True]])
        assert latents.shape == (2, 2, cfg.d_z)
        assert (latents[~empty] != 0).all() and (latents[empty] == 0).all()
        mutated = batch.take(np.arange(2))
        # rewrite only masked slots: padded paths, padded agents, padded commands
        am = mutated.agent_mask.astype(bool)
        cm = mutated.command_mask.astype(bool)
        new_kinds = rng.integers(2, 6, mutated.command_kinds.shape).astype(np.int16)
        new_args = rng.integers(0, 256, mutated.command_args.shape).astype(np.int16)
        mutated.command_kinds[~cm] = new_kinds[~cm]
        mutated.command_args[~cm] = new_args[~cm]
        mutated.agent_histories[~am] = rng.normal(0, 9, mutated.agent_histories.shape)[~am]
        assert not (mutated.command_kinds == batch.command_kinds).all()
        assert (model.predict(mutated) == base).all()
        # any value at an empty place of the (B, W_p, d_z) latents leaves the
        # prediction unchanged
        noise = rng.normal(0, 9, latents.shape) * empty[:, :, None]
        def noisy_place(rows, where):
            out = place(rows, where)
            # only the paths' (2, W_p = 2) placement has the noise's shape
            return T.add_const(out, noise) if out.shape == noise.shape else out

        monkeypatch.setattr(model_module, "_place", noisy_place)
        assert (model.predict(mutated) == base).all()

    def test_batch_consistency(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=4)
        batch = random_batch(cfg, 6, rng)
        full = model.predict(batch)
        singles = np.concatenate([model.predict(batch.take([i])) for i in range(6)])
        np.testing.assert_allclose(full, singles, atol=1e-5)

    def test_ablation_mask_nesting(self, rng):
        batch = random_batch(tiny_config(), 3, rng)
        masks = {}
        for mode in ("hist", "hist+scene", "hist+scene+agents"):
            model = SvgNet(tiny_config(input_mode=mode), seed=0)
            masks[mode] = model.fusion_mask(batch)
        hist, scene, full = masks["hist"], masks["hist+scene"], masks["hist+scene+agents"]
        assert hist.shape == (3, 1) and (hist == 1).all()
        w_p = int(batch.path_mask.sum(axis=1).max())
        real_paths = np.arange(w_p) < batch.path_mask.sum(axis=1)[:, None]
        assert np.array_equal(scene, np.concatenate([real_paths, np.ones((3, 1))], axis=1))
        assert np.array_equal(full[:, :w_p], scene[:, :w_p])
        assert hist.sum() < scene.sum() < full.sum()


class TestPacking:
    """Only real paths and agents are encoded, and the fusion sequence is as
    long as the batch's real elements need, whatever the caps."""

    @pytest.fixture(scope="class")
    def small_scenes(self):
        samples = [normalize_sample(r, IngestConfig())
                   for r in generate_records(SynthConfig(seed=0, n_scenes=8))]
        return [s for s in samples if len(s.scene_svg.paths) <= 16 and len(s.other_ids) <= 8]

    @pytest.mark.parametrize("caps", [(16, 16), (128, 8)], ids=["n_paths", "n_agents"])
    def test_predictions_do_not_depend_on_the_caps(self, small_scenes, caps):
        assert len(small_scenes) == 6
        model = SvgNet(ModelConfig(d_m=32, n_layers=1), seed=0, dtype=np.float64)
        wide = model.predict(make_batch(small_scenes, 128, 30, 16))
        n_paths, n_agents = caps
        assert np.array_equal(model.predict(make_batch(small_scenes, n_paths, 30, n_agents)), wide)

    def test_encoders_see_only_real_rows(self, rng):
        cfg = tiny_config(n_paths=6, n_agents=5)
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 3, rng)
        assert batch.path_mask.sum() < batch.path_mask.size   # some padding to skip
        seen = {}
        stack, history = model.scene_encoder.stack, model.history_encoder

        def spy_stack(x, key_mask, record=None):
            seen["paths"] = x.shape[0]
            return stack(x, key_mask, record)

        def spy_history(h):
            seen.setdefault("histories", []).append(h.shape[0])
            return history(h)

        model.scene_encoder.stack, model.history_encoder = spy_stack, spy_history
        model.predict(batch)
        assert seen == {"paths": batch.path_mask.sum(),
                        "histories": [batch.agent_mask.sum(), len(batch)]}
        w_p = batch.path_mask.sum(axis=1).max()
        w_a = batch.agent_mask.sum(axis=1).max()
        assert model.fusion_mask(batch).shape == (3, w_p + w_a + 1)

    @pytest.mark.parametrize("mode", ["hist", "hist+scene"])
    def test_excluded_kinds_take_no_position_and_are_not_encoded(self, rng, mode):
        cfg = tiny_config(input_mode=mode)
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 3, rng, n_real_paths=2, n_real_agents=1)
        seen = {"paths": 0, "histories": []}
        scene, history = model.scene_encoder, model.history_encoder

        def spy_scene(*rows):
            seen["paths"] += len(rows[0])
            return scene(*rows)

        def spy_history(h):
            seen["histories"].append(h.shape[0])
            return history(h)

        model.scene_encoder, model.history_encoder = spy_scene, spy_history
        _, rec = model.forward(batch, record_attention=True)
        n_paths = 2 if cfg.use_scene else 0
        assert seen == {"paths": 3 * n_paths, "histories": [3]}
        assert (rec.n_paths, rec.n_agents) == (n_paths, 0)
        assert model.fusion_mask(batch).shape == (3, n_paths + 1)
        kinds = {kind for sample in extract_attention(rec) for kind, _, _ in sample}
        assert kinds == ({"path", "main"} if cfg.use_scene else {"main"})

    @pytest.mark.parametrize("mode", ["hist", "hist+scene", "hist+scene+agents"])
    @pytest.mark.parametrize("case", ["no_real_elements", "path_without_commands"])
    def test_edge_batches_are_finite(self, rng, mode, case):
        cfg = tiny_config(input_mode=mode)
        model = SvgNet(cfg, seed=0)
        if case == "no_real_elements":
            batch = random_batch(cfg, 2, rng, n_real_paths=0, n_real_agents=0)
        else:
            batch = random_batch(cfg, 2, rng, n_real_paths=2, n_real_agents=1)
            batch.command_kinds[0, 1] = int(CommandKind.PAD)
            batch.command_args[0, 1] = -1
            batch.command_mask[0, 1] = 0.0
        with GradientTape() as tape:
            pred, rec = model.forward(batch, record_attention=True)
            loss = mse_loss(pred, batch.targets)
            tape.backward(loss)
        assert np.isfinite(loss.data)
        assert all(np.isfinite(p.grad).all() for p in model.parameters().values())
        entries = extract_attention(rec)
        assert all(np.isfinite(score) for sample in entries for _, _, score in sample)
        if case == "no_real_elements":
            assert rec.n_paths == rec.n_agents == 0
            assert entries == [[("main", "main", 1.0)]] * 2
        elif mode != "hist":
            assert ("path", "p1") in [(kind, key) for kind, key, _ in entries[0]]


class TestAttention:
    def test_hist_only_self_attention(self, rng):
        cfg = tiny_config(input_mode="hist")
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 2, rng)
        _, rec = model.forward(batch, record_attention=True)
        entries = extract_attention(rec)
        for sample in entries:
            assert len(sample) == 1
            kind, key, score = sample[0]
            assert kind == "main" and score == 1.0

    def test_scores_sum_to_one(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=1)
        batch = random_batch(cfg, 4, rng)
        _, rec = model.forward(batch, record_attention=True)
        for sample in extract_attention(rec):
            total = sum(score for _, _, score in sample)
            assert abs(total - 1.0) < 1e-5
            assert all(score >= 0 for _, _, score in sample)

    def test_duplicate_paths_get_equal_scores(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=2)
        batch = random_batch(cfg, 1, rng, n_real_paths=2, n_real_agents=0)
        batch.command_kinds[0, 1] = batch.command_kinds[0, 0]
        batch.command_args[0, 1] = batch.command_args[0, 0]
        batch.command_mask[0, 1] = batch.command_mask[0, 0]
        _, rec = model.forward(batch, record_attention=True)
        scores = [s for kind, _, s in extract_attention(rec)[0] if kind == "path"]
        assert len(scores) == 2
        assert abs(scores[0] - scores[1]) < 1e-5

    def test_recording_disabled(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        _, rec = model.forward(random_batch(cfg, 1, rng))
        with pytest.raises(RecordingDisabledError):
            extract_attention(rec)


class TestGradients:
    def test_full_model_grad_check_tiny(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=5, dtype=np.float64)
        batch = random_batch(cfg, 1, rng, n_real_paths=3, n_real_agents=2)

        def f():
            pred, _ = model.forward(batch)
            return mse_loss(pred, batch.targets)

        err = grad_check(f, model.parameters().values(),
                         max_coords_per_param=4, rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_transformer_layer_grad(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=6, dtype=np.float64)
        layer = model.decoder.stack.layers[0]
        x = rng.normal(0, 1, (2, 3, cfg.d_m))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        mix = rng.normal(size=(2, 3, cfg.d_m))
        layer_params = [p for name, p in model.parameters().items()
                        if name.startswith("decoder.layer0")]

        def f():
            out = layer(Tensor(x), mask)
            return T.tsum(T.mul(out, Tensor(mix)))

        err = grad_check(f, layer_params, max_coords_per_param=8,
                         rng=np.random.default_rng(1))
        assert err < 1e-4

    def test_residual_block_grad(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=7, dtype=np.float64)
        block = model.history_encoder.blocks[0]
        x = rng.normal(0, 1, (4, cfg.d_m))
        mix = rng.normal(size=(4, cfg.d_m))
        params = [p for name, p in model.parameters().items()
                  if name.startswith("history_encoder.block0")]
        err = grad_check(lambda: T.tsum(T.mul(block(Tensor(x)), Tensor(mix))), params)
        assert err < 1e-4


class TestConfigAndState:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(d_m=10, n_heads=3).validate()
        with pytest.raises(ValueError):
            ModelConfig(input_mode="everything").validate()
        cfg = tiny_config()
        assert cfg.d_h == 40 and cfg.d_out == 60

    def test_state_round_trip(self, rng):
        cfg = tiny_config()
        a = SvgNet(cfg, seed=8)
        b = SvgNet(cfg, seed=9)
        batch = random_batch(cfg, 2, rng)
        assert not np.allclose(a.predict(batch), b.predict(batch))
        b.load_state(a.state_arrays())
        assert (a.predict(batch) == b.predict(batch)).all()

    @pytest.mark.parametrize("first, second", [(np.float32, np.float64),
                                               (np.float64, np.float32)])
    def test_each_model_keeps_its_own_dtype(self, rng, first, second):
        cfg = tiny_config()
        batch = random_batch(cfg, 2, rng)
        a = SvgNet(cfg, seed=0, dtype=first)
        b = SvgNet(cfg, seed=0, dtype=second)
        for model, dtype in ((a, first), (b, second), (a, first)):
            assert model.predict(batch).dtype == dtype
            assert all(p.data.dtype == dtype for p in model.parameters().values())
            assert model.fusion_mask(batch).dtype == dtype
        np.testing.assert_allclose(a.predict(batch), b.predict(batch), rtol=1e-4, atol=1e-4)

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError):
            SvgNet(tiny_config(), dtype=np.int32)

    def test_param_names_hierarchical(self):
        model = SvgNet(tiny_config(), seed=0)
        names = set(model.parameters())
        assert "scene_encoder.layer0.attn.wq.w" in names
        assert "decoder.head.l3.b" in names
        assert len(names) == len(model.parameters())

    def test_sinusoidal_encoding_shape(self):
        enc = sinusoidal_encoding(30, 16, np.float32)
        assert enc.shape == (30, 16)
        assert np.isfinite(enc).all()
        assert abs(enc[0, 0]) < 1e-9 and abs(enc[0, 1] - 1.0) < 1e-6
