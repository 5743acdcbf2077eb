import numpy as np
import pytest

from model_helpers import random_batch, tiny_config
from svgnet import tensor as T
from svgnet.gradcheck import grad_check
from svgnet.model import (ModelConfig, RecordingDisabledError, SvgNet, extract_attention,
                          sinusoidal_encoding)
from svgnet.tensor import Tensor
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


class TestEncoders:
    def test_duplicate_paths_equal_latents(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        batch = random_batch(cfg, 1, rng, n_real_paths=2, n_real_agents=0)
        batch.command_kinds[0, 1] = batch.command_kinds[0, 0]
        batch.command_args[0, 1] = batch.command_args[0, 0]
        batch.command_mask[0, 1] = batch.command_mask[0, 0]
        latents = model.scene_encoder(batch).data
        np.testing.assert_allclose(latents[0, 0], latents[0, 1], atol=1e-6)

    def test_scene_encoder_permutation_equivariance(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=1)
        batch = random_batch(cfg, 2, rng)
        perm = rng.permutation(cfg.n_paths)
        base = model.scene_encoder(batch).data
        permuted = model.scene_encoder(permute_batch(batch, perm, np.arange(cfg.n_agents))).data
        np.testing.assert_allclose(permuted, base[:, perm], atol=1e-6)

    def test_history_encoder_deterministic_and_finite(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0)
        h = rng.normal(0, 5, (2, cfg.d_h))
        a = model.encode_history(h).data
        b = model.encode_history(h.copy()).data
        assert (a == b).all()
        z = model.encode_history(np.zeros((1, cfg.d_h))).data
        assert np.isfinite(z).all()
        assert a.shape == (2, cfg.d_z)

    def test_history_encoder_gradient(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=0, dtype=np.float64)
        h = T.Tensor(rng.normal(0, 1, (1, cfg.d_h)), requires_grad=True)
        mix = rng.normal(size=(1, cfg.d_z))
        err = grad_check(lambda: T.tsum(T.mul(model.encode_history(h), Tensor(mix))), [h])
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

    def test_masked_mutation_bit_identical_f64(self, rng):
        cfg = tiny_config()
        model = SvgNet(cfg, seed=3, dtype=np.float64)
        # a non-zero pool bias makes padded path latents non-zero, so only the
        # fusion key mask keeps them out of the prediction
        model.scene_encoder.pool.b.data[:] = rng.normal(0, 1, cfg.d_z)
        batch = random_batch(cfg, 2, rng, n_real_paths=2, n_real_agents=1)
        pm = batch.path_mask.astype(bool)
        encode = model.scene_encoder
        assert (encode(batch).data[~pm] != 0).all()
        base = model.predict(batch)
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
        # any value in a padded path's latent leaves the prediction unchanged
        noise = rng.normal(0, 9, (2, cfg.n_paths, cfg.d_z)) * ~pm[:, :, None]
        model.scene_encoder = lambda b: T.add_const(encode(b), noise)
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
        assert (hist <= scene).all() and (scene <= full).all()
        assert hist.sum() < scene.sum() < full.sum()
        assert (hist[:, -1] == 1).all()


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
