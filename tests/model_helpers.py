"""Small model configs, random batches, batch slicing and the padded forward-pass
oracle shared by the model, train, dataset and metrics tests; a scene record in the
agent frame and a reader for the SVG that visualize writes."""

import math
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np

from svgnet import tensor as T
from svgnet.dataset import AgentTrack, Batch, SceneRecord
from svgnet.model import ModelConfig, SvgNet
from svgnet.svg import CommandKind
from svgnet.tensor import Tensor


def tiny_config(**overrides) -> ModelConfig:
    base = dict(d_m=16, d_z=8, d_f=16, d_profiler=8, n_layers=1, n_heads=1,
                t_obs=20, t_pred=30, n_paths=4, n_commands=6, n_agents=2)
    base.update(overrides)
    return ModelConfig(**base)


def take_batch(batch: Batch, indices) -> Batch:
    """The samples of ``batch`` at ``indices``, in that order, as a new Batch."""
    idx = np.asarray(indices)

    def pick(value):
        if value is None:
            return None
        return [value[i] for i in idx] if isinstance(value, list) else value[idx]
    return Batch(**{f.name: pick(getattr(batch, f.name)) for f in fields(batch)})


def random_batch(cfg: ModelConfig, batch_size: int, rng, with_targets: bool = True,
                 n_real_paths=None, n_real_agents=None) -> Batch:
    """A structurally valid random batch (no geometry semantics)."""
    b, n_p, n_c, n_a = batch_size, cfg.n_paths, cfg.n_commands, cfg.n_agents
    kinds = np.full((b, n_p, n_c), int(CommandKind.PAD), dtype=np.int16)
    args = np.full((b, n_p, n_c, 6), -1, dtype=np.int16)
    path_mask = np.zeros((b, n_p), dtype=np.float32)
    command_mask = np.zeros((b, n_p, n_c), dtype=np.float32)
    agent_mask = np.zeros((b, n_a), dtype=np.float32)
    path_ids, agent_ids = [], []

    for i in range(b):
        k_paths = rng.integers(1, n_p + 1) if n_real_paths is None else n_real_paths
        for j in range(k_paths):
            k_cmds = int(rng.integers(2, n_c + 1))
            kinds[i, j, 0] = int(CommandKind.MOVE_TO)
            args[i, j, 0, 4:] = rng.integers(0, 256, 2)
            for k in range(1, k_cmds):
                kinds[i, j, k] = int(CommandKind.LINE_TO)
                args[i, j, k, 4:] = rng.integers(0, 256, 2)
            path_mask[i, j] = 1.0
            command_mask[i, j, :k_cmds] = 1.0
        k_agents = rng.integers(0, n_a + 1) if n_real_agents is None else n_real_agents
        agent_mask[i, :k_agents] = 1.0
        path_ids.append([f"p{j}" for j in range(k_paths)])
        agent_ids.append([f"a{j}" for j in range(int(k_agents))])

    agent_hist = rng.normal(0, 5, (b, n_a, 2 * cfg.t_obs)) * agent_mask[:, :, None]
    targets = rng.normal(0, 5, (b, 2 * cfg.t_pred)) if with_targets else None
    f2c = np.tile(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), (b, 1, 1))
    return Batch(
        command_kinds=kinds, command_args=args, path_mask=path_mask,
        command_mask=command_mask,
        main_history=rng.normal(0, 5, (b, 2 * cfg.t_obs)),
        agent_histories=agent_hist, agent_mask=agent_mask, targets=targets, frame_to_city=f2c,
        scene_ids=[f"s{i}" for i in range(b)], path_ids=path_ids, agent_ids=agent_ids)


# ---------------------------------------------------------------------------
# The padded oracle: SvgNet's forward pass as it ran before the transformer
# layers took real rows only. Every sublayer runs on all n * t slots, the
# attention is built from matmul and softmax ops with a block key mask, and
# the fusion decoder reads a zero-filled (B, L, d_z) sequence.
# ---------------------------------------------------------------------------

def _linear(lin, x):
    lead = x.shape[:-1]
    h = T.matmul(T.reshape(x, (-1, x.shape[-1])), lin.w)
    if lin.b is not None:
        h = T.add(h, lin.b)
    return T.reshape(h, lead + (lin.w.shape[1],))


def _layer_norm(ln, x):
    return T.add(T.mul(T.layer_norm(x), ln.gamma), ln.beta)


def _padded_layer(layer, x, key_mask, record):
    n, t, d_m = x.shape
    n_heads = layer.n_heads

    def heads(y):
        return T.swapaxes(T.reshape(y, (n, t, n_heads, d_m // n_heads)), 1, 2)

    h = _layer_norm(layer.ln1, x)
    q, k, v = (heads(_linear(lin, h)) for lin in (layer.wq, layer.wk, layer.wv))
    logits = T.scale(T.matmul(q, T.swapaxes(k, -1, -2)), 1.0 / math.sqrt(d_m // n_heads))
    mask = np.asarray(key_mask[:, None, None, :], dtype=logits.data.dtype)
    attn = T.softmax(T.add_const(logits, (mask - 1.0) * T.MASK_LARGE), axis=-1)
    record.append(attn.data)
    att = T.reshape(T.swapaxes(T.matmul(attn, v), 1, 2), (n, t, d_m))
    x = T.add(x, _linear(layer.wo, att))
    h = _layer_norm(layer.ln2, x)
    return T.add(x, _linear(layer.ffn2, T.relu(_linear(layer.ffn1, h))))


def _padded_stack(stack, x, key_mask, record):
    for layer in stack.layers:
        x = _padded_layer(layer, x, key_mask, record)
    return _layer_norm(stack.final_ln, x)


def _residual(block, x):
    return T.add(x, _linear(block.l2, T.relu(_linear(block.l1, x))))


def padded_forward(model: SvgNet, batch: Batch, empty_noise=None):
    """(prediction Tensor, (B, L) main-agent scores) computed on padded slots.

    empty_noise, a (B, L, d_z) array, is added to the fusion sequence's
    placed latents at its empty positions.
    """
    cfg, dt = model.cfg, model.dtype
    enc, hist, dec = model.scene_encoder, model.history_encoder, model.decoder
    (paths, agents, _), place, kinds = model._layout(batch)
    latents = []
    if paths.size:
        n_c = batch.command_kinds.shape[2]
        kinds_c = batch.command_kinds.reshape(-1, n_c)[paths]
        args = batch.command_args.reshape(-1, n_c, 6)[paths]
        cmd_mask = batch.command_mask.reshape(-1, n_c)[paths]
        x = T.add_const(enc.embed_commands(kinds_c, args), enc.pos_enc[None, :n_c, :])
        x = T.mul_const(_padded_stack(enc.stack, x, cmd_mask, []), cmd_mask[:, :, None])
        counts = np.maximum(cmd_mask.sum(axis=1), 1.0)
        latents.append(_linear(enc.pool, T.mul_const(T.tsum(x, axis=1), (1.0 / counts)[:, None])))
    h = Tensor(np.concatenate([batch.agent_histories.reshape(-1, cfg.d_h)[agents],
                               batch.main_history]).astype(dt))
    h = _linear(hist.input, h)
    for block in hist.blocks:
        h = _residual(block, h)
    latents.append(_linear(hist.output, h))
    latents.append(Tensor(np.zeros((1, cfg.d_z), dt)))
    elems = T.embedding_lookup(T.concat(latents, axis=0), place)
    mask = model.fusion_mask(batch)
    if empty_noise is not None:
        elems = T.add_const(elems, empty_noise * (1.0 - mask)[:, :, None])

    record = []
    x = T.add(_linear(dec.input, elems), T.embedding_lookup(dec.type_embed, kinds))
    x = _padded_stack(dec.stack, x, mask, record)
    r = T.take_index(x, axis=1, index=x.shape[1] - 1)
    for block in dec.blocks:
        r = _residual(block, r)
    main = Tensor(batch.main_history.astype(dt))
    prof = _linear(dec.prof2, T.relu(_linear(dec.prof1, main)))
    h = T.relu(_linear(dec.head1, T.concat([r, prof], axis=1)))
    pred = _linear(dec.head3, T.relu(_linear(dec.head2, h)))
    return pred, record[-1][:, :, -1, :].mean(axis=1)


# the frame coordinates 0.0 and HALF_BIN_ODD sit exactly on a half-bin boundary
# of the default 100 m view: bins 127.5 and 126.5 before rounding
HALF_BIN_ODD = -0.39215686274509665


def frame_record(polylines) -> SceneRecord:
    """A record whose city frame is its agent frame: the main agent ends at
    the origin heading +y, so normalized lane vertices equal the inputs."""
    frames = np.arange(50)
    xy = np.stack([np.zeros(50), frames - 19.0], axis=1)
    return SceneRecord("s", list(polylines), [AgentTrack("main", frames, xy, is_main=True)])


SVG_NS = "{http://www.w3.org/2000/svg}"


def read_svg_paths(text: str) -> list[tuple[str | None, np.ndarray]]:
    """Each path's id and (n, 2) float vertices, in document order, from an SVG in the
    canonical form: one <svg> root whose paths' data is "M x y" then "L x y" only,
    absolute and space-separated. Raises ValueError on any other path data."""
    root = ET.fromstring(text)
    if root.tag != f"{SVG_NS}svg":
        raise ValueError(f"root element is {root.tag!r}, expected an SVG root")
    out = []
    for elem in root.iter(f"{SVG_NS}path"):
        tokens = elem.get("d", "").split()
        letters = tokens[0::3]
        if len(tokens) % 3 or letters[:1] != ["M"] or set(letters[1:]) - {"L"}:
            raise ValueError(f"path data is not in canonical M/L form: {elem.get('d')!r}")
        xy = [[float(x), float(y)] for x, y in zip(tokens[1::3], tokens[2::3])]
        out.append((elem.get("id"), np.array(xy, dtype=np.float64)))
    return out
