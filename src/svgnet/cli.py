"""Command-line entry point: dataset tooling, training, evaluation, plots.

Exit codes: 0 success, 2 configuration error, 3 data error (bad records, or a
checkpoint that is corrupt or does not fit the model), 4 runtime error. The
model, train, ingest and synth sections of the config are all checked before
any work starts, so a value out of range exits 2 without reading data or
writing files. Map or agent coordinates that are not finite numbers make a
record bad (exit 3 when no usable record is left). A training step whose loss
or any gradient is NaN or inf raises train.NonFiniteLossError, exit 4, before
that step's update and before any further checkpoint or loss log write.
Set SVGNET_LOG to a logging level name (DEBUG, INFO, ...) for diagnostics.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from .checkpoint import load_checkpoint
from .config import ConfigError, RunConfig, load_run_config
from .dataset import (DatasetError, SchemaError, _atomic_write_text, apply_affine_points,
                      load_dataset, make_batch, normalize_sample)
from .metrics import constant_velocity_predictor, evaluate, model_predictor, \
    write_per_sample_csv
from .model import INPUT_MODES, SvgNet, extract_attention
from .synth import generate_dataset
from .train import encode_samples, train as run_training
from .viz import render_attention_svg

log = logging.getLogger("svgnet")


class SceneNotFoundError(DatasetError):
    pass


def _setup_logging() -> None:
    level = os.environ.get("SVGNET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _common_overrides(seed, input_mode) -> dict:
    overrides = {}
    if seed is not None:
        overrides["train.seed"] = seed
    if input_mode is not None:
        overrides["model.input_mode"] = input_mode
    return overrides


def _load_config_near_checkpoint(checkpoint: str, config: str | None,
                                 overrides: dict) -> RunConfig:
    if config is None:
        sibling = Path(checkpoint).parent / "config.json"
        if sibling.exists():
            config = str(sibling)
    return load_run_config(config, overrides)


def _load_model(checkpoint: str, cfg: RunConfig, dtype) -> SvgNet:
    model = SvgNet(cfg.model, seed=cfg.train.seed, dtype=dtype)
    model.load_state(load_checkpoint(checkpoint))
    return model


def _read_records(data: str) -> list:
    errors: list[SchemaError] = []
    records = list(load_dataset(data, errors=errors))
    for err in errors:
        log.warning("skipping record: %s", err)
    if not records:
        raise DatasetError(f"{data}: no usable records")
    return records


input_mode_option = click.option(
    "--input-mode", type=click.Choice(INPUT_MODES),
    default=None, help="Which inputs the model attends to.")
f64_option = click.option(
    "--f64", "dtype", is_flag=True,
    callback=lambda _ctx, _param, on: np.float64 if on else np.float32,
    help="Build the model in float64 (for verification) instead of float32.")
seed_option = click.option("--seed", type=int, default=None, help="Override the run seed.")


@click.group()
def cli() -> None:
    """Trajectory forecasting from SVG scene representations."""
    _setup_logging()


@cli.command("synth-gen")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--n-scenes", type=int, default=None)
@click.option("--first-index", type=int, default=0)
@seed_option
def synth_gen(config_path, out, n_scenes, first_index, seed) -> None:
    """Generate a synthetic JSONL dataset plus its manifest."""
    overrides = {}
    if n_scenes is not None:
        overrides["synth.n_scenes"] = n_scenes
    if seed is not None:
        overrides["synth.seed"] = seed
    cfg = load_run_config(config_path, overrides)
    path = generate_dataset(cfg.synth, out, first_index=first_index)
    click.echo(f"wrote {cfg.synth.n_scenes} scenes to {path}")


@cli.command("import-argoverse")
@click.option("--csv", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--map-json", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def import_argoverse(csv_path, map_json, out) -> None:
    """Convert motion-forecasting CSV sequences to the JSONL schema."""
    from .dataset import import_argoverse_csv
    n = import_argoverse_csv(csv_path, map_json, out)
    click.echo(f"wrote {n} records to {out}")


@cli.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@input_mode_option
@f64_option
@seed_option
def train_cmd(config_path, data, out_dir, input_mode, dtype, seed) -> None:
    """Train a model; writes checkpoints, loss log, and config.json."""
    cfg = load_run_config(config_path, _common_overrides(seed, input_mode))
    encoded = encode_samples(_read_records(data), cfg.ingest, cfg.model.n_paths,
                             cfg.model.n_commands, cfg.model.n_agents)
    model = SvgNet(cfg.model, seed=cfg.train.seed, dtype=dtype)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_json(out / "config.json")
    log_entries = run_training(model, encoded, cfg.train, out_dir=out)
    final_losses = [e["loss"] for e in log_entries if e["loss"] is not None]
    click.echo(f"trained {cfg.train.epochs} epochs, final step loss "
               f"{final_losses[-1]:.4f}, checkpoints in {out}")


@cli.command("eval")
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the metrics report JSON here.")
@click.option("--per-sample-csv", type=click.Path(dir_okay=False), default=None)
@click.option("--baseline", is_flag=True,
              help="Evaluate the constant-velocity baseline instead of the model.")
@input_mode_option
@f64_option
@seed_option
def eval_cmd(checkpoint, data, config_path, out, per_sample_csv, baseline, input_mode,
             dtype, seed) -> None:
    """Report ADE / FDE / miss rate on a dataset with targets."""
    cfg = _load_config_near_checkpoint(checkpoint, config_path,
                                       _common_overrides(seed, input_mode))
    records = _read_records(data)
    caps = (cfg.model.n_paths, cfg.model.n_commands, cfg.model.n_agents)
    if baseline:
        predictor = constant_velocity_predictor(cfg.model.t_pred)
    else:
        predictor = model_predictor(_load_model(checkpoint, cfg, dtype))
    report = evaluate(predictor, records, ingest=cfg.ingest, caps=caps,
                      per_sample=per_sample_csv is not None)
    click.echo(json.dumps({"ade": report.ade, "fde": report.fde,
                           "miss_rate": report.miss_rate,
                           "n_samples": report.n_samples}))
    if out:
        report.write_json(out)
    if per_sample_csv:
        write_per_sample_csv(report, per_sample_csv)


@cli.command("predict")
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@input_mode_option
@f64_option
@seed_option
def predict_cmd(checkpoint, data, out, config_path, input_mode, dtype, seed) -> None:
    """Write city-frame predicted trajectories as JSONL, one line per scene."""
    cfg = _load_config_near_checkpoint(checkpoint, config_path,
                                       _common_overrides(seed, input_mode))
    model = _load_model(checkpoint, cfg, dtype)
    records = _read_records(data)
    lines = []
    for rec in records:
        sample = normalize_sample(rec, cfg.ingest)
        batch = make_batch([sample], cfg.model.n_paths, cfg.model.n_commands,
                           cfg.model.n_agents)
        pred = model.predict(batch)[0].reshape(-1, 2).astype(np.float64)
        city = apply_affine_points(sample.frame_to_city, pred)
        lines.append(json.dumps({"scene_id": rec.scene_id, "prediction": city.tolist()}))
    _atomic_write_text(Path(out), "\n".join(lines) + "\n")
    click.echo(f"wrote {len(lines)} predictions to {out}")


@cli.command("visualize")
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scene-id", required=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@input_mode_option
@f64_option
@seed_option
def visualize_cmd(checkpoint, data, scene_id, out, config_path, input_mode, dtype,
                  seed) -> None:
    """Render one scene with the decoder's attention as opacity."""
    cfg = _load_config_near_checkpoint(checkpoint, config_path,
                                       _common_overrides(seed, input_mode))
    model = _load_model(checkpoint, cfg, dtype)
    record = None
    for rec in _read_records(data):
        if rec.scene_id == scene_id:
            record = rec
            break
    if record is None:
        raise SceneNotFoundError(f"scene {scene_id!r} not found in {data}")
    sample = normalize_sample(record, cfg.ingest)
    batch = make_batch([sample], cfg.model.n_paths, cfg.model.n_commands,
                       cfg.model.n_agents)
    pred_t, attn = model.forward(batch, record_attention=True)
    entries = extract_attention(attn)[0]
    pred = pred_t.data[0].reshape(-1, 2)
    svg_text = render_attention_svg(sample, entries, prediction=pred)
    _atomic_write_text(Path(out), svg_text)
    click.echo(f"wrote {out}")


def main() -> int:
    try:
        cli.main(standalone_mode=False)
        return 0
    except (ConfigError, click.UsageError, click.BadParameter) as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except (DatasetError, FileNotFoundError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 3
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        click.echo(f"error: {exc}", err=True)
        return 4


if __name__ == "__main__":
    sys.exit(main())
