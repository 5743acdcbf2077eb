"""Command-line entry point: dataset tooling, training, evaluation, plots.

Exit codes: 0 success, 2 configuration error (a ConfigError), 3 data error (a
DatasetError: bad records, or a checkpoint that is corrupt, holds a NaN or
inf, or does not fit the model), 4 runtime error (anything else). The model,
train and synth sections of the config are each checked as they are built,
before any work starts, so a value out of range, or an unknown section such
as the retired ingest, exits 2 without reading data or writing files. Map
or agent coordinates that are not finite numbers, or that lie beyond 1e8 m
of 0, make a record bad (exit 3 when no usable record is left), and so does
a JSONL line that is not UTF-8. A config file that is not UTF-8 exits 2. An
import-argoverse input that is not UTF-8, or that import_argoverse_csv
rejects, exits 3.
A training step whose loss or any gradient is NaN or inf raises
train.NonFiniteLossError, exit 4, before that step's update and before any
further checkpoint or loss log write. Every output file's directory is
created if it does not exist.
SVGNET_LOG sets the logging level by name (default WARNING); a name that
logging does not know as a level exits 2. The only messages are the
WARNING for each skipped bad record, so SVGNET_LOG=ERROR silences them;
nothing logs below WARNING.
main runs numpy's bundled OpenBLAS on one thread, so that every matmul
sums in one order and training writes the same weights on any CPU count.
"""

from __future__ import annotations

import ctypes
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
                      import_argoverse_csv, load_dataset, make_batch, normalize_sample)
from .metrics import constant_velocity_predictor, evaluate, model_predictor, \
    write_per_sample_csv
from .model import INPUT_MODES, SvgNet, extract_attention
from .synth import generate_dataset
from .train import encode_samples, train as run_training
from .viz import render_attention_svg

log = logging.getLogger("svgnet")


def _setup_logging() -> None:
    name = os.environ.get("SVGNET_LOG", "WARNING")
    level = logging.getLevelName(name.upper())   # an int only for a level's name
    if not isinstance(level, int):
        raise ConfigError(f"SVGNET_LOG={name!r} is not a logging level name")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _run_blas_on_one_thread() -> None:
    """Set the OpenBLAS that numpy's core extension links (the one its wheels
    bundle) to one thread; a no-op when numpy links another BLAS. The
    setting is process-wide, so only main makes it, never an import."""
    try:
        from numpy._core import _multiarray_umath
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


def _load_config_near_checkpoint(checkpoint: str, config: str | None,
                                 input_mode: str | None) -> RunConfig:
    if config is None:
        sibling = Path(checkpoint).parent / "config.json"
        if sibling.exists():
            config = str(sibling)
    return load_run_config(config, {"model.input_mode": input_mode})


def _load_model(checkpoint: str, cfg: RunConfig, dtype) -> SvgNet:
    """The model of cfg with every parameter loaded from the checkpoint."""
    model = SvgNet(cfg.model, dtype=dtype)
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


def _encode(record, cfg: RunConfig):
    """(sample, one-sample batch) of a record, as the model of cfg reads it."""
    sample = normalize_sample(record, cfg.model.ingest)
    return sample, make_batch([sample], *cfg.model.caps)


config_option = click.option("--config", "config_path", default=None,
                             type=click.Path(exists=True, dir_okay=False))
checkpoint_option = click.option("--checkpoint", required=True, type=click.Path())
data_option = click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
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
@config_option
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--n-scenes", type=int, default=None)
@click.option("--first-index", type=click.IntRange(min=0), default=0)
@seed_option
def synth_gen(config_path, out, n_scenes, first_index, seed) -> None:
    """Generate a synthetic JSONL dataset plus its manifest."""
    cfg = load_run_config(config_path, {"synth.n_scenes": n_scenes, "synth.seed": seed})
    path = generate_dataset(cfg.synth, out, first_index=first_index)
    click.echo(f"wrote {cfg.synth.n_scenes} scenes to {path}")


@cli.command("import-argoverse")
@click.option("--csv", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--map-json", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def import_argoverse(csv_path, map_json, out) -> None:
    """Convert motion-forecasting CSV sequences to the JSONL schema."""
    n = import_argoverse_csv(csv_path, map_json, out)
    click.echo(f"wrote {n} records to {out}")


@cli.command("train")
@config_option
@data_option
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@input_mode_option
@f64_option
@seed_option
def train_cmd(config_path, data, out_dir, input_mode, dtype, seed) -> None:
    """Train a model; writes checkpoints, loss log, and config.json."""
    cfg = load_run_config(config_path, {"train.seed": seed, "model.input_mode": input_mode})
    encoded = encode_samples(_read_records(data), cfg.model)
    model = SvgNet(cfg.model, seed=cfg.train.seed, dtype=dtype)
    out = Path(out_dir)
    cfg.write_json(out / "config.json")
    log_entries = run_training(model, encoded, cfg.train, out_dir=out)
    click.echo(f"trained {cfg.train.epochs} epochs, final step loss "
               f"{log_entries[-1]['loss']:.4f}, checkpoints in {out}")


@cli.command("eval")
@checkpoint_option
@data_option
@config_option
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the metrics report JSON here.")
@click.option("--per-sample-csv", type=click.Path(dir_okay=False), default=None)
@click.option("--baseline", is_flag=True,
              help="Evaluate the constant-velocity baseline instead of the model.")
@input_mode_option
@f64_option
def eval_cmd(checkpoint, data, config_path, out, per_sample_csv, baseline, input_mode,
             dtype) -> None:
    """Report ADE / FDE / miss rate on a dataset with targets."""
    cfg = _load_config_near_checkpoint(checkpoint, config_path, input_mode)
    records = _read_records(data)
    if baseline:
        predictor = constant_velocity_predictor(cfg.model.t_pred)
    else:
        predictor = model_predictor(_load_model(checkpoint, cfg, dtype))
    report = evaluate(predictor, records, ingest=cfg.model.ingest, caps=cfg.model.caps,
                      per_sample=per_sample_csv is not None)
    click.echo(json.dumps({"ade": report.ade, "fde": report.fde,
                           "miss_rate": report.miss_rate,
                           "n_samples": report.n_samples}, allow_nan=False))
    if out:
        report.write_json(out)
    if per_sample_csv:
        write_per_sample_csv(report, per_sample_csv)


@cli.command("predict")
@checkpoint_option
@data_option
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@config_option
@input_mode_option
@f64_option
def predict_cmd(checkpoint, data, out, config_path, input_mode, dtype) -> None:
    """Write city-frame predicted trajectories as JSONL, one line per scene."""
    cfg = _load_config_near_checkpoint(checkpoint, config_path, input_mode)
    model = _load_model(checkpoint, cfg, dtype)
    records = _read_records(data)
    lines = []
    for rec in records:
        sample, batch = _encode(rec, cfg)
        pred = model.predict(batch)[0].reshape(-1, 2).astype(np.float64)
        city = apply_affine_points(sample.frame_to_city, pred)
        lines.append(json.dumps({"scene_id": rec.scene_id, "prediction": city.tolist()},
                                allow_nan=False))
    _atomic_write_text(Path(out), "\n".join(lines) + "\n")
    click.echo(f"wrote {len(lines)} predictions to {out}")


@cli.command("visualize")
@checkpoint_option
@data_option
@click.option("--scene-id", required=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@config_option
@input_mode_option
@f64_option
def visualize_cmd(checkpoint, data, scene_id, out, config_path, input_mode, dtype) -> None:
    """Render one scene with the decoder's attention as opacity."""
    cfg = _load_config_near_checkpoint(checkpoint, config_path, input_mode)
    model = _load_model(checkpoint, cfg, dtype)
    record = None
    for rec in _read_records(data):
        if rec.scene_id == scene_id:
            record = rec
            break
    if record is None:
        raise DatasetError(f"scene {scene_id!r} not found in {data}")
    sample, batch = _encode(record, cfg)
    pred_t, attn = model.forward(batch)
    entries = extract_attention(attn)[0]
    pred = pred_t.data[0].reshape(-1, 2)
    svg_text = render_attention_svg(sample, entries, prediction=pred)
    _atomic_write_text(Path(out), svg_text)
    click.echo(f"wrote {out}")


def main() -> int:
    _run_blas_on_one_thread()
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
