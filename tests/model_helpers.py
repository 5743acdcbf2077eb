"""Small model configs and random batches shared by the model, train and metrics tests."""

import numpy as np

from svgnet.dataset import Batch
from svgnet.model import ModelConfig
from svgnet.svg import CommandKind


def tiny_config(**overrides) -> ModelConfig:
    base = dict(d_m=16, d_z=8, d_f=16, d_profiler=8, n_layers=1, n_heads=1,
                t_obs=20, t_pred=30, n_paths=4, n_commands=6, n_agents=2)
    base.update(overrides)
    return ModelConfig(**base)


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
