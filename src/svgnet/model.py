"""Transformer encoder-decoder for trajectory prediction from SVG scenes.

Three element kinds feed a fusion transformer: per-path latents from a
command-level transformer encoder, per-agent latents from a shared
residual-MLP history encoder, and the main agent's latent. The fused
representation at the main-agent slot is decoded into 30 future (x, y)
steps, with a small MLP on the raw main history ("speed profiler")
concatenated in before the output head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError
from .tensor import Parameter, Tensor

INPUT_MODES = ("hist", "hist+scene", "hist+scene+agents")

N_COMMAND_KINDS = 6
N_ARG_SLOTS = 6
N_ARG_ROWS = 257  # 256 coordinate bins + 1 sentinel row for unused slots
SENTINEL_ROW = 256
N_ELEMENT_TYPES = 3  # scene path / other agent / main agent


class RecordingDisabledError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    d_m: int = 256          # transformer width
    d_z: int = 64           # per-element latent between encoders and decoder
    d_f: int = 128          # output head hidden width
    d_profiler: int = 64    # speed profiler hidden/output width
    n_layers: int = 4
    n_heads: int = 8
    t_obs: int = 20
    t_pred: int = 30
    n_paths: int = 128      # N_P cap
    n_commands: int = 30    # N_C cap
    n_agents: int = 16      # N_A cap (other agents)
    n_decoder_blocks: int = 3
    n_history_blocks: int = 4
    input_mode: str = "hist+scene+agents"

    @property
    def d_h(self) -> int:
        return 2 * self.t_obs

    @property
    def d_out(self) -> int:
        return 2 * self.t_pred

    @property
    def use_scene(self) -> bool:
        return self.input_mode in ("hist+scene", "hist+scene+agents")

    @property
    def use_agents(self) -> bool:
        return self.input_mode == "hist+scene+agents"

    def validate(self) -> None:
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"input_mode must be one of {INPUT_MODES}, got {self.input_mode!r}")
        if self.d_m % self.n_heads != 0:
            raise ValueError(f"d_m={self.d_m} not divisible by n_heads={self.n_heads}")
        for name in ("d_m", "d_z", "d_f", "d_profiler", "n_layers", "n_heads",
                     "t_obs", "t_pred", "n_paths", "n_commands", "n_agents"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class AttentionRecord:
    """Main-agent attention over the fusion sequence, one row per sample.

    scores has shape (B, L) with L = n_paths + n_agents + 1; entries are
    the last fusion layer's attention weights for the main-agent query,
    averaged over heads. mask is the (B, L) fusion key mask they used.
    """

    scores: np.ndarray
    n_paths: int
    n_agents: int
    mask: np.ndarray
    path_ids: list
    agent_ids: list


def extract_attention(record: AttentionRecord | None) -> list[list[tuple[str, str, float]]]:
    """Per-sample (kind, id, score) triples for every unmasked element."""
    if record is None:
        raise RecordingDisabledError("forward pass ran without attention recording")
    out = []
    for b in range(record.scores.shape[0]):
        entries: list[tuple[str, str, float]] = []
        for i in range(record.n_paths):
            if record.mask[b, i] > 0:
                pid = record.path_ids[b][i] if i < len(record.path_ids[b]) else str(i)
                entries.append(("path", pid, float(record.scores[b, i])))
        for j in range(record.n_agents):
            if record.mask[b, record.n_paths + j] > 0:
                aid = record.agent_ids[b][j] if j < len(record.agent_ids[b]) else str(j)
                entries.append(("agent", aid, float(record.scores[b, record.n_paths + j])))
        entries.append(("main", "main", float(record.scores[b, -1])))
        out.append(entries)
    return out


def sinusoidal_encoding(n_positions: int, dim: int, dtype) -> np.ndarray:
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(dtype)


class _ParamFactory:
    """Creates uniquely named parameters and registers them in order."""

    def __init__(self, registry: dict[str, Parameter], rng: np.random.Generator, dtype):
        self.registry = registry
        self.rng = rng
        self.dtype = dtype

    def _register(self, name: str, data: np.ndarray) -> Parameter:
        if name in self.registry:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(name, data.astype(self.dtype))
        self.registry[name] = p
        return p

    def xavier(self, name: str, fan_in: int, fan_out: int) -> Parameter:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return self._register(name, self.rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def zeros(self, name: str, shape) -> Parameter:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Parameter:
        return self._register(name, np.ones(shape))

    def embedding(self, name: str, shape) -> Parameter:
        return self._register(name, self.rng.normal(0.0, 0.02, size=shape))


class _Linear:
    def __init__(self, pf: _ParamFactory, name: str, d_in: int, d_out: int,
                 bias: bool = True):
        self.w = pf.xavier(f"{name}.w", d_in, d_out)
        self.b = pf.zeros(f"{name}.b", (d_out,)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            h = T.matmul(x, self.w)
            return h if self.b is None else T.add(h, self.b)
        lead = x.shape[:-1]
        h = T.matmul(T.reshape(x, (-1, x.shape[-1])), self.w)
        if self.b is not None:
            h = T.add(h, self.b)
        return T.reshape(h, lead + (self.w.shape[1],))


class _LayerNorm:
    def __init__(self, pf: _ParamFactory, name: str, dim: int, eps: float = 1e-5):
        self.gamma = pf.ones(f"{name}.gamma", (dim,))
        self.beta = pf.zeros(f"{name}.beta", (dim,))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.mul(T.layer_norm(x, axis=-1, eps=self.eps), self.gamma), self.beta)


class _ResidualBlock:
    """x + MLP(x) with one ReLU, all at the same width."""

    def __init__(self, pf: _ParamFactory, name: str, dim: int):
        self.l1 = _Linear(pf, f"{name}.l1", dim, dim)
        self.l2 = _Linear(pf, f"{name}.l2", dim, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(x, self.l2(T.relu(self.l1(x))))


class _TransformerLayer:
    """Pre-norm multi-head self-attention block with an MLP sublayer."""

    def __init__(self, pf: _ParamFactory, name: str, d_m: int, n_heads: int):
        self.n_heads = n_heads
        self.d_head = d_m // n_heads
        self.ln1 = _LayerNorm(pf, f"{name}.ln1", d_m)
        # no q/k biases: a key bias shifts every logit in a row equally,
        # which softmax cancels, leaving a parameter with exactly zero grad
        self.wq = _Linear(pf, f"{name}.attn.wq", d_m, d_m, bias=False)
        self.wk = _Linear(pf, f"{name}.attn.wk", d_m, d_m, bias=False)
        self.wv = _Linear(pf, f"{name}.attn.wv", d_m, d_m)
        self.wo = _Linear(pf, f"{name}.attn.wo", d_m, d_m)
        self.ln2 = _LayerNorm(pf, f"{name}.ln2", d_m)
        self.ffn1 = _Linear(pf, f"{name}.ffn.l1", d_m, 2 * d_m)
        self.ffn2 = _Linear(pf, f"{name}.ffn.l2", 2 * d_m, d_m)

    def _heads(self, x: Tensor, n: int, t: int) -> Tensor:
        return T.swapaxes(T.reshape(x, (n, t, self.n_heads, self.d_head)), 1, 2)

    def __call__(self, x: Tensor, key_mask: np.ndarray, record: list | None = None) -> Tensor:
        n, t, d_m = x.shape
        h = self.ln1(x)
        q = self._heads(self.wq(h), n, t)
        k = self._heads(self.wk(h), n, t)
        v = self._heads(self.wv(h), n, t)
        mask = key_mask[:, None, None, :]
        att = T.scaled_dot_product_attention(q, k, v, mask=mask, record=record)
        att = T.reshape(T.swapaxes(att, 1, 2), (n, t, d_m))
        x = T.add(x, self.wo(att))
        h = self.ln2(x)
        return T.add(x, self.ffn2(T.relu(self.ffn1(h))))


class _TransformerStack:
    def __init__(self, pf: _ParamFactory, name: str, d_m: int, n_heads: int, n_layers: int):
        self.layers = [_TransformerLayer(pf, f"{name}.layer{i}", d_m, n_heads)
                       for i in range(n_layers)]
        self.final_ln = _LayerNorm(pf, f"{name}.final_ln", d_m)

    def __call__(self, x: Tensor, key_mask: np.ndarray, record: list | None = None) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x, key_mask, record=record if i == last else None)
        return self.final_ln(x)


class SceneEncoder:
    """Per-path transformer over embedded command vectors, pooled to d_z."""

    def __init__(self, pf: _ParamFactory, cfg: ModelConfig):
        self.cfg = cfg
        self.kind_embed = pf.embedding("scene_encoder.kind_embed", (N_COMMAND_KINDS, cfg.d_m))
        self.arg_embed = pf.embedding("scene_encoder.arg_embed",
                                      (N_ARG_SLOTS, N_ARG_ROWS, cfg.d_m))
        self.stack = _TransformerStack(pf, "scene_encoder", cfg.d_m, cfg.n_heads, cfg.n_layers)
        self.pool = _Linear(pf, "scene_encoder.pool", cfg.d_m, cfg.d_z)
        self.pos_enc = sinusoidal_encoding(cfg.n_commands, cfg.d_m, pf.dtype)

    def embed_commands(self, kinds: np.ndarray, args: np.ndarray) -> Tensor:
        """kinds (..., ), args (..., 6) with -1 sentinels -> (..., d_m)."""
        rows = np.where(args < 0, SENTINEL_ROW, args)
        rows = rows + np.arange(N_ARG_SLOTS) * N_ARG_ROWS
        table = T.reshape(self.arg_embed, (N_ARG_SLOTS * N_ARG_ROWS, self.cfg.d_m))
        arg_vecs = T.tsum(T.embedding_lookup(table, rows), axis=-2)
        return T.add(T.embedding_lookup(self.kind_embed, kinds), arg_vecs)

    def __call__(self, batch) -> Tensor:
        cfg = self.cfg
        b, n_p, n_c = batch.command_kinds.shape
        emb = self.embed_commands(batch.command_kinds, batch.command_args)
        emb = T.add_const(emb, self.pos_enc[None, None, :n_c, :])
        x = T.reshape(emb, (b * n_p, n_c, cfg.d_m))
        cmd_mask = batch.command_mask.reshape(b * n_p, n_c)
        x = self.stack(x, cmd_mask)
        # masked mean over real command positions; a fully padded path pools
        # to 0, and the decoder's key mask hides its latent
        x = T.mul_const(x, cmd_mask[:, :, None])
        counts = np.maximum(cmd_mask.sum(axis=1), 1.0)
        pooled = T.mul_const(T.tsum(x, axis=1), (1.0 / counts)[:, None])
        return T.reshape(self.pool(pooled), (b, n_p, cfg.d_z))


class HistoryEncoder:
    """Residual MLP over a flattened (t_obs * 2) trajectory."""

    def __init__(self, pf: _ParamFactory, cfg: ModelConfig):
        self.input = _Linear(pf, "history_encoder.input", cfg.d_h, cfg.d_m)
        self.blocks = [_ResidualBlock(pf, f"history_encoder.block{i}", cfg.d_m)
                       for i in range(cfg.n_history_blocks)]
        self.output = _Linear(pf, "history_encoder.output", cfg.d_m, cfg.d_z)

    def __call__(self, h: Tensor) -> Tensor:
        x = self.input(h)
        for block in self.blocks:
            x = block(x)
        return self.output(x)


class Decoder:
    """Fusion transformer over element latents plus the output head."""

    def __init__(self, pf: _ParamFactory, cfg: ModelConfig):
        self.cfg = cfg
        self.type_embed = pf.embedding("decoder.type_embed", (N_ELEMENT_TYPES, cfg.d_m))
        self.input = _Linear(pf, "decoder.input", cfg.d_z, cfg.d_m)
        self.stack = _TransformerStack(pf, "decoder", cfg.d_m, cfg.n_heads, cfg.n_layers)
        self.blocks = [_ResidualBlock(pf, f"decoder.block{i}", cfg.d_m)
                       for i in range(cfg.n_decoder_blocks)]
        self.prof1 = _Linear(pf, "decoder.profiler.l1", cfg.d_h, cfg.d_profiler)
        self.prof2 = _Linear(pf, "decoder.profiler.l2", cfg.d_profiler, cfg.d_profiler)
        self.head1 = _Linear(pf, "decoder.head.l1", cfg.d_m + cfg.d_profiler, cfg.d_f)
        self.head2 = _Linear(pf, "decoder.head.l2", cfg.d_f, cfg.d_f)
        self.head3 = _Linear(pf, "decoder.head.l3", cfg.d_f, cfg.d_out)

    def __call__(self, path_latents: Tensor, agent_latents: Tensor, main_latent: Tensor,
                 fusion_mask: np.ndarray, main_history: Tensor,
                 record: list | None = None) -> Tensor:
        b, n_p, _ = path_latents.shape
        n_a = agent_latents.shape[1]
        elems = T.concat([path_latents, agent_latents,
                          T.reshape(main_latent, (b, 1, self.cfg.d_z))], axis=1)
        x = self.input(elems)
        type_idx = np.concatenate([np.zeros(n_p, np.int64), np.ones(n_a, np.int64),
                                   np.full(1, 2, np.int64)])
        x = T.add(x, T.embedding_lookup(self.type_embed, type_idx))
        # the main-agent key is always visible, so no fusion row is fully masked
        x = self.stack(x, fusion_mask, record=record)
        r = T.take_index(x, axis=1, index=n_p + n_a)
        for block in self.blocks:
            r = block(r)
        prof = self.prof2(T.relu(self.prof1(main_history)))
        h = T.relu(self.head1(T.concat([r, prof], axis=1)))
        h = T.relu(self.head2(h))
        return self.head3(h)


class SvgNet:
    """Full model: scene encoder, shared history encoder, fusion decoder."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        """dtype (float32, or float64 for gradient checks) is used for the
        parameters and for every array the model feeds to the tape."""
        cfg.validate()
        self.dtype = np.dtype(dtype).type
        if self.dtype not in (np.float32, np.float64):
            raise ValueError("dtype must be float32 or float64")
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}
        pf = _ParamFactory(self.params, np.random.default_rng(seed), self.dtype)
        self.scene_encoder = SceneEncoder(pf, cfg)
        self.history_encoder = HistoryEncoder(pf, cfg)
        self.decoder = Decoder(pf, cfg)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, Parameter]:
        return self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Load every parameter; the names and shapes must match the model's exactly."""
        extra = sorted(arrays.keys() - self.params.keys())
        if extra:
            raise CheckpointError(f"checkpoint parameter {extra[0]!r} is not in the model")
        for name, p in self.params.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
            if tuple(arrays[name].shape) != p.shape:
                raise CheckpointError(
                    f"parameter {name!r}: checkpoint shape {arrays[name].shape}, "
                    f"model shape {p.shape}")
            p.data = arrays[name].astype(p.data.dtype)

    # -- forward ------------------------------------------------------------

    def fusion_mask(self, batch) -> np.ndarray:
        """Key mask over [paths | agents | main] for the configured inputs."""
        b = batch.command_kinds.shape[0]
        path_part = batch.path_mask if self.cfg.use_scene else np.zeros_like(batch.path_mask)
        agent_part = batch.agent_mask if self.cfg.use_agents else np.zeros_like(batch.agent_mask)
        mask = np.concatenate([path_part, agent_part, np.ones((b, 1))], axis=1)
        return mask.astype(self.dtype)

    def encode_history(self, history) -> Tensor:
        if not isinstance(history, Tensor):
            history = Tensor(history, dtype=self.dtype)
        return self.history_encoder(history)

    def forward(self, batch, record_attention: bool = False
                ) -> tuple[Tensor, AttentionRecord | None]:
        cfg = self.cfg
        dt = self.dtype
        b, n_p, _ = batch.command_kinds.shape
        n_a = batch.agent_histories.shape[1]

        if cfg.use_scene:
            path_latents = self.scene_encoder(batch)
        else:
            path_latents = Tensor(np.zeros((b, n_p, cfg.d_z), dt))

        if cfg.use_agents:
            flat = batch.agent_histories.reshape(b * n_a, cfg.d_h).astype(dt)
            agent_latents = T.reshape(self.encode_history(Tensor(flat)), (b, n_a, cfg.d_z))
        else:
            agent_latents = Tensor(np.zeros((b, n_a, cfg.d_z), dt))

        main_history = Tensor(batch.main_history.astype(dt))
        main_latent = self.encode_history(main_history)

        rec_list: list | None = [] if record_attention else None
        mask = self.fusion_mask(batch)
        pred = self.decoder(path_latents, agent_latents, main_latent, mask, main_history,
                            record=rec_list)

        record = None
        if record_attention:
            attn = rec_list[-1]  # (B, H, L, L) from the last fusion layer
            scores = attn[:, :, n_p + n_a, :].mean(axis=1)
            record = AttentionRecord(scores=scores, n_paths=n_p, n_agents=n_a, mask=mask,
                                     path_ids=batch.path_ids, agent_ids=batch.agent_ids)
        return pred, record

    def predict(self, batch) -> np.ndarray:
        """Forward pass without gradient recording; returns (B, d_out)."""
        pred, _ = self.forward(batch)
        return pred.data
