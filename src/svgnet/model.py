"""Transformer encoder-decoder for trajectory prediction from SVG scenes.

Three element kinds feed a fusion transformer: per-path latents from a
command-level transformer encoder, per-agent latents from a shared
residual-MLP history encoder, and the main agent's latent. The fused
representation at the main-agent slot is decoded into 30 future (x, y)
steps, with a small MLP on the raw main history ("speed profiler")
concatenated in before the output head.

The encoders map rows to latents and see only real elements. SvgNet
packs a batch's padded (B, N) slots of each kind, with the main agent as
the third kind of one slot per sample, into a fusion sequence of
L = W_p + W_a + 1 positions: W is the most real elements of that kind in
any sample of the batch, and each sample's elements sit at the front of
their kind's positions in slot order. The scene encoder runs once on the
real paths and the history encoder once on the real agents followed by
the main agents. The input mode masks the inputs: a kind it leaves out
has no real element, so it is not encoded and has W = 0. Neither the
fusion sequence's work nor its outputs depend on the n_paths/n_agents
caps.

Both transformers work on real rows only: the scene encoder's rows are
the real commands of its paths, one block of N_C positions per path,
and the fusion decoder's rows are the latents, one block of L positions
per sample. A place index puts each row at its position of its block,
with R (the row count) at an empty position; only the attention reads
it, and it treats an empty position as a hidden key. So the outputs are
those of dense layers run on every padded slot with the padding hidden
by the attention key mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .dataset import DatasetError, IngestConfig
from .svg import N_ARG_SLOTS, N_COORD_BINS, CommandKind
from .tensor import Parameter, Tensor

INPUT_MODES = ("hist", "hist+scene", "hist+scene+agents")

N_COMMAND_KINDS = len(CommandKind)
N_ARG_ROWS = N_COORD_BINS + 1  # the coordinate bins + 1 sentinel row for unused slots
SENTINEL_ROW = N_COORD_BINS
N_ELEMENT_TYPES = 3  # scene path / other agent / main agent


@dataclass(frozen=True)
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
    def ingest(self) -> IngestConfig:
        """The horizon and split limit that turn a record into this model's input."""
        return IngestConfig(self.t_obs, self.t_pred, self.n_commands)

    @property
    def caps(self) -> tuple[int, int, int]:
        """make_batch's slot caps: (n_paths, n_commands, n_agents)."""
        return self.n_paths, self.n_commands, self.n_agents

    @property
    def use_scene(self) -> bool:
        return self.input_mode in ("hist+scene", "hist+scene+agents")

    @property
    def use_agents(self) -> bool:
        return self.input_mode == "hist+scene+agents"

    def __post_init__(self) -> None:
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"input_mode must be one of {INPUT_MODES}, got {self.input_mode!r}")
        for name in ("d_m", "d_z", "d_f", "d_profiler", "n_layers", "n_heads",
                     "t_obs", "t_pred", "n_paths", "n_commands", "n_agents"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_m % self.n_heads != 0:
            raise ValueError(f"d_m={self.d_m} not divisible by n_heads={self.n_heads}")
        if self.n_commands < 2:
            raise ValueError("n_commands must be >= 2 (a MoveTo and a LineTo)")


@dataclass
class AttentionRecord:
    """Main-agent attention over the fusion sequence, one row per sample.

    scores has shape (B, L) with L = n_paths + n_agents + 1, where
    n_paths and n_agents are the batch's packed widths W_p and W_a (the
    most real paths and agents in any sample), not the caps; a kind the
    input mode leaves out has W = 0. Position i of a kind is a sample's
    i-th real element of that kind in slot order, and the main agent is
    position L - 1. Entries are the last fusion layer's attention weights
    for the main-agent query, averaged over heads. mask is the (B, L)
    fusion key mask they used. Every forward pass returns one.
    """

    scores: np.ndarray
    n_paths: int
    n_agents: int
    mask: np.ndarray
    path_ids: list
    agent_ids: list


def extract_attention(record: AttentionRecord) -> list[list[tuple[str, str, float]]]:
    """Per-sample (kind, id, score) triples for every unmasked element."""
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


def _pack(masks: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Real slots of each kind's (B, N_k) slot mask, and where they go when packed.

    Returns, per kind, the flat (B * N_k) indices of the slots whose mask
    is set, in row-major order; a (B, L) index into the rows so selected,
    kind after kind; and the (L,) kind of each position. Kind k takes W_k
    positions, the most real slots of that kind in any sample, and puts
    each sample's real slots at the front of them in slot order. Places
    past a sample's count point at row n_real, one past the selected rows.
    """
    real = [mask > 0 for mask in masks]
    counts = [r.sum(axis=1) for r in real]
    n_real = sum(int(c.sum()) for c in counts)
    offset, places, kinds = 0, [], []
    for k, c in enumerate(counts):
        i = np.arange(c.max(initial=0))
        start = offset + np.cumsum(c) - c
        places.append(np.where(i < c[:, None], start[:, None] + i, n_real))
        kinds.append(np.full(i.size, k))
        offset += int(c.sum())
    return ([np.flatnonzero(r) for r in real], np.concatenate(places, axis=1),
            np.concatenate(kinds))


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

    def __call__(self, x: Tensor, *, residual: Tensor | None = None,
                 relu: bool = False) -> Tensor:
        return T.linear(x, self.w, self.b, residual=residual, relu=relu)


class _LayerNorm:
    def __init__(self, pf: _ParamFactory, name: str, dim: int):
        self.gamma = pf.ones(f"{name}.gamma", (dim,))
        self.beta = pf.zeros(f"{name}.beta", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class _ResidualBlock:
    """x + MLP(x) with one ReLU, all at the same width.

    Two dense layers, the first with its ReLU and the second with the
    residual add fused in (``T.linear``): the tape keeps one buffer each.
    """

    def __init__(self, pf: _ParamFactory, name: str, dim: int):
        self.l1 = _Linear(pf, f"{name}.l1", dim, dim)
        self.l2 = _Linear(pf, f"{name}.l2", dim, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.l2(self.l1(x, relu=True), residual=x)


class _TransformerLayer:
    """Pre-norm multi-head self-attention block with an MLP sublayer.

    Takes (R, d_m) rows and an (n, t) place index that puts them into n
    blocks of t positions, with R at an empty position (see
    ``T.scaled_dot_product_attention``). Every dense sublayer runs on the
    R rows only; each row attends over the rows of its own block. The
    residual adds and the MLP's ReLU are fused into the dense layers
    (``T.linear``), so the tape keeps one buffer per dense layer, plus
    the two layer norms' outputs and normalized inputs and the attention
    output and weights.
    """

    def __init__(self, pf: _ParamFactory, name: str, d_m: int, n_heads: int):
        self.n_heads = n_heads
        self.ln1 = _LayerNorm(pf, f"{name}.ln1", d_m)
        # no q/k biases: a key bias shifts every logit in a row equally,
        # which softmax cancels, leaving a parameter with exactly zero gradient
        self.wq = _Linear(pf, f"{name}.attn.wq", d_m, d_m, bias=False)
        self.wk = _Linear(pf, f"{name}.attn.wk", d_m, d_m, bias=False)
        self.wv = _Linear(pf, f"{name}.attn.wv", d_m, d_m)
        self.wo = _Linear(pf, f"{name}.attn.wo", d_m, d_m)
        self.ln2 = _LayerNorm(pf, f"{name}.ln2", d_m)
        self.ffn1 = _Linear(pf, f"{name}.ffn.l1", d_m, 2 * d_m)
        self.ffn2 = _Linear(pf, f"{name}.ffn.l2", 2 * d_m, d_m)

    def __call__(self, x: Tensor, place: np.ndarray, record: list | None = None) -> Tensor:
        h = self.ln1(x)
        att = T.scaled_dot_product_attention(self.wq(h), self.wk(h), self.wv(h), place,
                                             self.n_heads, record)
        x = self.wo(att, residual=x)
        return self.ffn2(self.ffn1(self.ln2(x), relu=True), residual=x)


class _TransformerStack:
    def __init__(self, pf: _ParamFactory, name: str, d_m: int, n_heads: int, n_layers: int):
        self.layers = [_TransformerLayer(pf, f"{name}.layer{i}", d_m, n_heads)
                       for i in range(n_layers)]
        self.final_ln = _LayerNorm(pf, f"{name}.final_ln", d_m)

    def __call__(self, x: Tensor, place: np.ndarray, record: list | None = None) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x, place, record=record if i == last else None)
        return self.final_ln(x)


class SceneEncoder:
    """Per-path transformer over embedded command vectors, pooled to d_z.

    Maps n paths' command rows, kinds (n, N_C), args (n, N_C, 6) and
    cmd_mask (n, N_C), to (n, d_z) latents. Only the real commands are
    embedded and run through the stack, as rows placed at their command
    slot of their path's block.
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
        arg_vecs = T.embedding_lookup(table, rows, sum_axis=-1)
        return T.add(T.embedding_lookup(self.kind_embed, kinds), arg_vecs)

    def __call__(self, kinds: np.ndarray, args: np.ndarray, cmd_mask: np.ndarray) -> Tensor:
        real = cmd_mask > 0
        n_real = int(real.sum())
        place = np.full(real.shape, n_real)
        place[real] = np.arange(n_real)
        x = T.add_const(self.embed_commands(kinds[real], args[real]),
                        self.pos_enc[np.nonzero(real)[1]])
        x = self.stack(x, place)
        # mean over each path's real commands, summed in slot order with
        # zeros at the empty slots; a path with no real command pools to 0
        zero = Tensor(np.zeros((1, self.cfg.d_m), x.data.dtype))
        summed = T.embedding_lookup(T.concat([x, zero], axis=0), place, sum_axis=1)
        counts = np.maximum(cmd_mask.sum(axis=1), 1.0)
        pooled = T.mul_const(summed, (1.0 / counts)[:, None])
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

    def __call__(self, elems: Tensor, kinds: np.ndarray, place: np.ndarray,
                 main_history: Tensor, record: list) -> Tensor:
        """elems (R, d_z) rows of kinds (R,), placed into the (B, L) fusion
        sequences by place (R at an empty position); the last B rows are
        the main agents, one per sample, at position L - 1."""
        x = self.input(elems, residual=T.embedding_lookup(self.type_embed, kinds))
        x = self.stack(x, place, record=record)
        n_rows = x.shape[0]
        r = T.embedding_lookup(x, np.arange(n_rows - place.shape[0], n_rows))
        for block in self.blocks:
            r = block(r)
        prof = self.prof2(self.prof1(main_history, relu=True))
        h = self.head1(T.concat([r, prof], axis=1), relu=True)
        return self.head3(self.head2(h, relu=True))


class SvgNet:
    """Full model: scene encoder, shared history encoder, fusion decoder.

    A built model holds its weights only: a tape's backward returns the
    gradients, and the AdamW moments appear at the optimizer's first
    step, so predicting allocates neither.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        """dtype (float32, or float64 for gradient checks) is used for the
        parameters and for every array the model feeds to the tape."""
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

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Load every parameter; the names and shapes must match the model's exactly."""
        extra = sorted(arrays.keys() - self.params.keys())
        if extra:
            raise DatasetError(f"checkpoint parameter {extra[0]!r} is not in the model")
        for name, p in self.params.items():
            if name not in arrays:
                raise DatasetError(f"checkpoint is missing parameter {name!r}")
            if tuple(arrays[name].shape) != p.shape:
                raise DatasetError(
                    f"parameter {name!r}: checkpoint shape {arrays[name].shape}, "
                    f"model shape {p.shape}")
            p.data[...] = arrays[name]

    # -- forward ------------------------------------------------------------

    def _layout(self, batch) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """The ``_pack`` of [paths | agents | main], with every slot of a
        kind the input mode leaves out unset."""
        cfg = self.cfg
        return _pack([batch.path_mask * cfg.use_scene, batch.agent_mask * cfg.use_agents,
                      np.ones((len(batch), 1))])

    def fusion_mask(self, batch) -> np.ndarray:
        """(B, W_p + W_a + 1) key mask over [paths | agents | main].

        Each kind is packed as the module docstring describes: a sample's
        real elements are set at the front of its kind's W positions. A
        kind the input mode leaves out has W = 0.
        """
        rows, place, _ = self._layout(batch)
        return (place < sum(r.size for r in rows)).astype(self.dtype)

    def forward(self, batch) -> tuple[Tensor, AttentionRecord]:
        cfg = self.cfg
        dt = self.dtype
        (paths, agents, _), place, kinds = self._layout(batch)
        latents = []
        if paths.size:
            n_c = batch.command_kinds.shape[2]
            latents.append(self.scene_encoder(
                batch.command_kinds.reshape(-1, n_c)[paths],
                batch.command_args.reshape(-1, n_c, N_ARG_SLOTS)[paths],
                batch.command_mask.reshape(-1, n_c)[paths]))
        histories = np.concatenate([batch.agent_histories.reshape(-1, cfg.d_h)[agents],
                                    batch.main_history])
        latents.append(self.history_encoder(Tensor(histories.astype(dt))))
        row_kinds = np.repeat(np.arange(N_ELEMENT_TYPES), [paths.size, agents.size, len(batch)])

        rec: list = []
        mask = self.fusion_mask(batch)
        pred = self.decoder(T.concat(latents, axis=0), row_kinds, place,
                            Tensor(batch.main_history.astype(dt)), rec)
        # rec[-1] is the last fusion layer's (B, H, L, L) attention
        record = AttentionRecord(scores=rec[-1][:, :, -1, :].mean(axis=1),
                                 n_paths=int((kinds == 0).sum()),
                                 n_agents=int((kinds == 1).sum()), mask=mask,
                                 path_ids=batch.path_ids, agent_ids=batch.agent_ids)
        return pred, record

    def predict(self, batch) -> np.ndarray:
        """Forward pass without gradient recording; returns (B, d_out)."""
        pred, _ = self.forward(batch)
        return pred.data
