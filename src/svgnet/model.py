"""Transformer encoder-decoder for trajectory prediction from SVG scenes.

Three element kinds feed a fusion transformer: per-path latents from a
command-level transformer encoder, per-agent latents from a shared
residual-MLP history encoder, and the main agent's latent. The fused
representation at the main-agent slot is decoded into 30 future (x, y)
steps, with a small MLP on the raw main history ("speed profiler")
concatenated in before the output head.

The encoders map rows to latents and see only real elements. SvgNet
packs a batch's padded (B, N) slots to the n_real rows whose mask is set,
encodes them, and places the latents into (B, W, d_z), where W is the
most real elements of that kind in any sample of the batch; each
sample's elements sit at the front in slot order. The input mode masks
the inputs: a kind it leaves out has no real element, so it is not
encoded and has W = 0. So the fusion sequence has L = W_p + W_a + 1
positions per batch, and neither its work nor its outputs depend on the
n_paths/n_agents caps.
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
        if self.n_commands < 2:
            raise ValueError("n_commands must be >= 2 (a MoveTo and a LineTo)")


@dataclass
class AttentionRecord:
    """Main-agent attention over the fusion sequence, one row per sample.

    scores has shape (B, L) with L = n_paths + n_agents + 1, where
    n_paths and n_agents are the batch's packed widths W_p and W_a (the
    most real paths and agents in any sample), not the caps; a kind the
    input mode leaves out has W = 0. Position i of a kind is a sample's
    i-th real element of that kind in slot order. Entries are the last
    fusion layer's attention weights for the main-agent query, averaged
    over heads. mask is the (B, L) fusion key mask they used.
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
                entries.append(("path", record.path_ids[b][i], float(record.scores[b, i])))
        for j in range(record.n_agents):
            k = record.n_paths + j
            if record.mask[b, k] > 0:
                entries.append(("agent", record.agent_ids[b][j], float(record.scores[b, k])))
        entries.append(("main", "main", float(record.scores[b, -1])))
        out.append(entries)
    return out


def sinusoidal_encoding(n_positions: int, dim: int, dtype) -> np.ndarray:
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(dtype)


def _pack(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real slots of a (B, N) slot mask, and where they go when packed.

    Returns the flat (B * N) indices of the slots whose mask is set, in
    row-major order, and a (B, W) index into the rows so selected that
    puts each sample's real slots at the front in slot order, W being
    the most real slots in any sample. Places past a sample's count
    point at row n_real, one past the selected rows.
    """
    real = mask > 0
    counts = real.sum(axis=1)
    i = np.arange(counts.max(initial=0))
    start = np.cumsum(counts) - counts
    place = np.where(i < counts[:, None], start[:, None] + i, counts.sum())
    return np.flatnonzero(real), place


def _place(rows: Tensor, place: np.ndarray) -> Tensor:
    """Packed (n_real, d) rows -> (B, W, d) by a ``_pack`` index; empty places are 0."""
    zero = Tensor(np.zeros((1, rows.shape[1]), rows.data.dtype))
    return T.embedding_lookup(T.concat([rows, zero], axis=0), place)


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
    """Per-path transformer over embedded command vectors, pooled to d_z.

    Maps n paths' command rows, kinds (n, N_C), args (n, N_C, 6) and
    cmd_mask (n, N_C), to (n, d_z) latents.
    """

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

    def __call__(self, kinds: np.ndarray, args: np.ndarray, cmd_mask: np.ndarray) -> Tensor:
        n_c = kinds.shape[1]
        x = T.add_const(self.embed_commands(kinds, args), self.pos_enc[None, :n_c, :])
        x = self.stack(x, cmd_mask)
        # masked mean over real command positions; a path with no real
        # command pools to 0
        x = T.mul_const(x, cmd_mask[:, :, None])
        counts = np.maximum(cmd_mask.sum(axis=1), 1.0)
        pooled = T.mul_const(T.tsum(x, axis=1), (1.0 / counts)[:, None])
        return self.pool(pooled)


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

    def _layout(self, batch) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The ``_pack`` of the path and of the agent slot mask, with every
        slot of a kind the input mode leaves out unset."""
        cfg = self.cfg
        return _pack(batch.path_mask * cfg.use_scene), _pack(batch.agent_mask * cfg.use_agents)

    def fusion_mask(self, batch) -> np.ndarray:
        """(B, W_p + W_a + 1) key mask over [paths | agents | main].

        Each kind is packed as the module docstring describes: a sample's
        real elements are set at the front of its W slots. A kind the
        input mode leaves out has W = 0.
        """
        parts = [place < rows.size for rows, place in self._layout(batch)]
        parts.append(np.ones((len(batch), 1), bool))
        return np.concatenate(parts, axis=1).astype(self.dtype)

    def forward(self, batch, record_attention: bool = False
                ) -> tuple[Tensor, AttentionRecord | None]:
        cfg = self.cfg
        dt = self.dtype
        n_c = batch.command_kinds.shape[2]
        kinds = batch.command_kinds.reshape(-1, n_c)
        args = batch.command_args.reshape(-1, n_c, N_ARG_SLOTS)
        cmd_mask = batch.command_mask.reshape(-1, n_c)
        histories = batch.agent_histories.reshape(-1, cfg.d_h)
        encoders = (lambda r: self.scene_encoder(kinds[r], args[r], cmd_mask[r]),
                    lambda r: self.history_encoder(Tensor(histories[r].astype(dt))))
        # an encoder runs only on real rows; a kind with none, left out by
        # the input mode or absent from the batch, is placed with W = 0
        path_latents, agent_latents = (
            _place(encode(rows) if rows.size else Tensor(np.zeros((0, cfg.d_z), dt)), place)
            for encode, (rows, place) in zip(encoders, self._layout(batch)))
        n_p, n_a = path_latents.shape[1], agent_latents.shape[1]

        main_history = Tensor(batch.main_history.astype(dt))
        main_latent = self.history_encoder(main_history)

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
