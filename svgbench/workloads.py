"""The benchmark's workloads.

Before each set-up and each measured operation the process moves to the
CPU that is least slowed by other load at that moment
(measure.pin_to_quietest_cpu), and the operation runs between two probes
of fixed work that scale its time to a fixed machine speed
(measure.Probe). Every workload first sets up SETUPS times back to back
(the median is ``setup_s``), runs a fixed reference phase whose outputs
are compared with the values stored in ``svgbench/reference/`` (this also warms
caches), and then measures its main loop for the requested number of
seconds on scenes synthesized from the run's seed. The program only ever
sees the generated JSONL.

Scene synthesis is input generation, so it is never inside a timed
region. All svgnet functions are reached through their modules
(``dataset.make_batch``, not an imported name) so that the tracer's
wrappers see every call.

Throughputs are the items done over the scaled seconds spent on them,
summed over the whole measured loop. The latency tail is read at a percentile
fixed per workload (TAIL_PERCENTILE), chosen from the reference runs'
sample counts so that at least ten samples lie beyond it there; a slower
program then reports the same percentile of fewer samples rather than a
lower percentile.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from svgnet import checkpoint, dataset, metrics, model, synth, train

from . import measure

REFERENCE_DIR = Path(__file__).parent / "reference"

PAPER = model.ModelConfig()
TINY = model.ModelConfig(d_m=16, d_z=8, d_f=16, d_profiler=8, n_layers=1, n_heads=1,
                         n_paths=4, n_commands=6, n_agents=2)
SETUPS = 25  # setup_s is the median of this many back-to-back set-ups

# train-paper-b4
TRAIN_BATCH = 4
REFERENCE_STEPS = 2
TRAIN_SCENES = 16            # one epoch, ingested up front as `svgnet train` does
# serve-paper-b1
REFERENCE_REQUESTS = 4
REQUESTS_PER_FILE = 32
# ingest-tiny: one round trains a fresh model per input mode
ROUND_TRAIN_SCENES = 64
ROUND_EVAL_SCENES = 32
EVAL_FIRST_INDEX = 10_000_000   # held-out scenes come from a disjoint index range
TINY_TRAIN = dict(epochs=4, batch_size=32, lr=3e-3)

# Percentile of the latency tail. At least 59 requests and 1216 ingested
# scenes fit in a 30 s run at the parent commit's speed (20 runs, probes
# included), so p80 and p99 are the highest round percentiles with at
# least ten samples beyond them. Only 5-7 train steps fit, too few for
# that rule; p75 is the second slowest of them, since the slowest alone
# varied by a third between runs whenever other load on the host hit a
# single step.
TAIL_PERCENTILE = {"train-paper-b4": 75.0, "serve-paper-b1": 80.0, "ingest-tiny": 99.0}

# Stated tolerances of the output check. The paper references are single
# forward/backward passes; the tiny quality track compounds 8 optimizer
# steps per input mode, so it gets a looser relative bound.
TOLERANCE = {
    "train-paper-b4": {"rtol": 1e-4, "atol": 0.0},
    "serve-paper-b1": {"rtol": 1e-6, "atol": 1e-3},
    "ingest-tiny": {"rtol": 1e-3, "atol": 0.0},
}

# The probe whose work slows down like the workload's own (measure.PROBES).
PROBE = {"train-paper-b4": "memory", "serve-paper-b1": "numeric", "ingest-tiny": "objects"}

# Per-layer figures the workloads compute themselves; 0 where a workload
# does not run that stage.
EXTRA_UNITS = {
    "train.samples_per_s": "1/s",
    "train.loss_final": "loss",
    "metrics.evaluate.scenes_per_s": "1/s",
    "quality.ade_m": "m",
    "quality.fde_m": "m",
    "quality.ade_m_hist": "m",
    "quality.ade_m_hist_scene": "m",
}


@dataclass
class Run:
    """What one workload run measured; every time is scaled by the probe."""

    tail_percentile: float = 100.0
    probe: measure.Probe = measure.PROBES["numeric"]
    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    cpus: list[int] = field(default_factory=list)   # CPU chosen for each operation
    scales: list[float] = field(default_factory=list)   # probe scale of each operation
    latencies_ms: list[float] = field(default_factory=list)
    # {stage: [items, seconds]} summed over the measured loop
    work: dict[str, list[float]] = field(default_factory=lambda: defaultdict(lambda: [0.0, 0.0]))
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def did(self, stage: str, items: float, seconds: float) -> None:
        self.work[stage][0] += items
        self.work[stage][1] += seconds

    def merge(self, part: "Run", scale: float) -> None:
        """Add what ``part`` measured in wall time, scaled by ``scale``."""
        self.attempted += part.attempted
        self.failed += part.failed
        self.latencies_ms.extend(scale * ms for ms in part.latencies_ms)
        for stage, (items, seconds) in part.work.items():
            self.did(stage, items, scale * seconds)

    def rate(self, stage: str) -> float:
        items, seconds = self.work[stage]
        return items / seconds

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        tail, _ = measure.tail(self.latencies_ms, self.tail_percentile)
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ok_share": ((self.attempted - self.failed) / self.attempted, "share"),
            "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
            "samples_per_s": (self.rate("samples"), "1/s"),
            "latency_ms_p50": (statistics.median(self.latencies_ms), "ms"),
            "latency_ms_tail": (tail, "ms"),
        }


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    tracer: object | None = None
    write_reference: bool = False
    reference: dict = field(default_factory=dict)
    allowed_cpus: list[int] = field(default_factory=lambda: sorted(os.sched_getaffinity(0)))

    def timed(self, run: Run, fn):
        """Pin to the quietest allowed CPU, then run ``fn()`` between two probes.

        Returns (result, wall seconds, scale); the caller multiplies the
        times it reports by ``scale``.
        """
        run.cpus.append(measure.pin_to_quietest_cpu(self.allowed_cpus))
        result, wall, scale = run.probe.timed(fn)
        run.scales.append(scale)
        return result, wall, scale

    @contextlib.contextmanager
    def untraced(self):
        """Run a block with the tracer's wrappers passing straight through."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def check(self, run: Run, workload: str, key: str, actual) -> bool:
        """Compare with the stored reference; a mismatch is a failed operation."""
        actual = np.asarray(actual, dtype=np.float64)
        if self.write_reference:
            self.reference[key] = actual.tolist()
            ok = bool(np.isfinite(actual).all())
        else:
            expected = self.reference.get(key)
            ok = expected is not None and measure.close(actual, expected,
                                                        **TOLERANCE[workload])
            if not ok:
                print(f"output check failed for {workload} {key}: got {actual.tolist()!r}",
                      flush=True)
        run.op(ok)
        return ok


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["values"]


def save_reference(workload: str, values: dict) -> None:
    doc = {"workload": workload, "tolerance": TOLERANCE[workload], "values": values}
    reference_path(workload).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def ingest_config(cfg: model.ModelConfig) -> dataset.IngestConfig:
    return dataset.IngestConfig(t_obs=cfg.t_obs, t_pred=cfg.t_pred, max_commands=cfg.n_commands)


def caps(cfg: model.ModelConfig) -> tuple[int, int, int]:
    return cfg.n_paths, cfg.n_commands, cfg.n_agents


def with_mode(cfg: model.ModelConfig, mode: str) -> model.ModelConfig:
    return model.ModelConfig(**{**cfg.__dict__, "input_mode": mode})


def write_scenes(path: Path, seed: int, first_index: int, n: int) -> Path:
    records = synth.generate_records(synth.SynthConfig(seed=seed, n_scenes=n), first_index)
    dataset.save_dataset(records, path)
    return path


def ingest_one(records, cfg: model.ModelConfig):
    """JSONL load, normalize_sample and make_batch for the next record.

    Returns (sample, batch, seconds), or None when the stream is exhausted.
    """
    t0 = time.perf_counter()
    try:
        rec = next(records)
    except StopIteration:
        return None
    sample = dataset.normalize_sample(rec, ingest_config(cfg))
    batch = dataset.make_batch([sample], *caps(cfg))
    return sample, batch, time.perf_counter() - t0


def ingest(path: Path, cfg: model.ModelConfig) -> tuple[list, list[float]]:
    """Ingest every scene of a JSONL file: (single-scene batches, seconds each)."""
    batches, seconds = [], []
    records = dataset.load_dataset(path)
    while (item := ingest_one(records, cfg)) is not None:
        batches.append(item[1])
        seconds.append(item[2])
    return batches, seconds


def set_up(ctx: Context, run: Run, build):
    """Build SETUPS times back to back, timing each; returns the last build."""
    run.probe.seconds()   # the first probe allocates its buffers
    for _ in range(SETUPS):
        built, wall, scale = ctx.timed(run, build)
        run.setup_s.append(scale * wall)
    return built


# ---------------------------------------------------------------------------
# train-paper-b4
# ---------------------------------------------------------------------------

def train_paper_b4(ctx: Context) -> Run:
    """Paper config trained through train.train at batch size 4.

    The run's 16 scenes are ingested up front, as `svgnet train` does, and
    form one epoch of 4 steps. Each operation is one train.train call of a
    single step on the next 4 of them, so every step starts a fresh AdamW
    and train.loss_final is measured with the optimizer state reset every
    step. The epoch's last step also writes what a training run writes at
    its end (epoch, final model and optimizer checkpoints, the loss log);
    the other steps write nothing. Latency is the time of that call;
    samples_per_s is 4 over it.
    """
    run = Run(tail_percentile=TAIL_PERCENTILE["train-paper-b4"],
              probe=measure.PROBES[PROBE["train-paper-b4"]])
    net = set_up(ctx, run, lambda: model.SvgNet(PAPER, seed=0))

    with ctx.untraced():
        ref, _ = ingest(write_scenes(ctx.work / "reference.jsonl", 0, 0,
                                     REFERENCE_STEPS * TRAIN_BATCH), PAPER)
        log = train.train(net, ref, train.TrainConfig(epochs=1, batch_size=TRAIN_BATCH, seed=0),
                          out_dir=ctx.work / "reference-run")
    for i, entry in enumerate(log):
        ctx.check(run, "train-paper-b4", f"loss_step{i}", entry["loss"])

    batches, _ = ingest(write_scenes(ctx.work / "train.jsonl", ctx.seed, 0, TRAIN_SCENES), PAPER)
    loss = math.nan
    deadline = time.perf_counter() + ctx.seconds
    step = 0
    while time.perf_counter() < deadline:
        lo = step * TRAIN_BATCH % TRAIN_SCENES
        epoch_end = lo + TRAIN_BATCH >= TRAIN_SCENES
        cfg = train.TrainConfig(epochs=1, batch_size=TRAIN_BATCH, seed=ctx.seed + step)
        log, wall, scale = ctx.timed(run, lambda: train.train(
            net, batches[lo:lo + TRAIN_BATCH], cfg,
            out_dir=ctx.work / "train-run" if epoch_end else None))
        dt = scale * wall
        loss = log[-1]["loss"]
        run.op(math.isfinite(loss))
        run.did("samples", TRAIN_BATCH, dt)
        run.latencies_ms.append(1e3 * dt)
        step += 1
    run.extra["train.samples_per_s"] = (run.rate("samples"), "1/s")
    run.extra["train.loss_final"] = (loss, "loss")
    return run


# ---------------------------------------------------------------------------
# serve-paper-b1
# ---------------------------------------------------------------------------

def serve_one(net: model.SvgNet, records):
    """One request as `svgnet predict` serves it.

    Returns (city-frame prediction, seconds), or None when the record
    stream is exhausted.
    """
    item = ingest_one(records, net.cfg)
    if item is None:
        return None
    sample, batch, ingest_s = item
    t0 = time.perf_counter()
    pred = net.predict(batch)[0].reshape(-1, 2).astype(np.float64)
    city = dataset.apply_affine_points(sample.frame_to_city, pred)
    return city, ingest_s + time.perf_counter() - t0


def serve_paper_b1(ctx: Context) -> Run:
    """Closed loop, one client: each request is one scene at batch size 1.

    The paper model is loaded from a checkpoint; latency is a request's
    time from reading its JSONL record to city-frame coordinates.
    """
    run = Run(tail_percentile=TAIL_PERCENTILE["serve-paper-b1"],
              probe=measure.PROBES[PROBE["serve-paper-b1"]])
    prefix = ctx.work / "model"
    checkpoint.save_checkpoint(model.SvgNet(PAPER, seed=0).state_arrays(), prefix)

    def load():
        net = model.SvgNet(PAPER, seed=0)
        net.load_state(checkpoint.load_checkpoint(prefix))
        return net
    net = set_up(ctx, run, load)

    with ctx.untraced():
        ref = dataset.load_dataset(write_scenes(ctx.work / "reference.jsonl", 0, 0,
                                                REFERENCE_REQUESTS))
        for i in range(REFERENCE_REQUESTS):
            ctx.check(run, "serve-paper-b1", f"prediction{i}", serve_one(net, ref)[0])

    deadline = time.perf_counter() + ctx.seconds
    first = 0
    while time.perf_counter() < deadline:
        records = dataset.load_dataset(write_scenes(ctx.work / "requests.jsonl", ctx.seed,
                                                    first, REQUESTS_PER_FILE))
        first += REQUESTS_PER_FILE
        while time.perf_counter() < deadline:
            served, _, scale = ctx.timed(run, lambda: serve_one(net, records))
            if served is None:
                break
            city, seconds = served
            run.op(city.shape == (PAPER.t_pred, 2) and bool(np.isfinite(city).all()))
            run.latencies_ms.append(1e3 * scale * seconds)
            run.did("samples", 1, scale * seconds)
    return run


# ---------------------------------------------------------------------------
# ingest-tiny
# ---------------------------------------------------------------------------

def tiny_round(ctx: Context, seed: int, index: int, run: Run) -> dict[str, tuple]:
    """Ingest a round's scenes, train one model per input mode, evaluate each.

    Returns {input_mode: (ade, fde, final loss)}; timings go into ``run``.
    """
    train_path = write_scenes(ctx.work / "train.jsonl", seed, index * ROUND_TRAIN_SCENES,
                              ROUND_TRAIN_SCENES)
    eval_path = write_scenes(ctx.work / "eval.jsonl", seed,
                             EVAL_FIRST_INDEX + index * ROUND_EVAL_SCENES, ROUND_EVAL_SCENES)
    t_round = time.perf_counter()
    batches, seconds = ingest(train_path, TINY)
    run.latencies_ms.extend(1e3 * s for s in seconds)
    out = {}
    train_s = 0.0
    for mode in model.INPUT_MODES:
        cfg = with_mode(TINY, mode)
        net = model.SvgNet(cfg, seed=0)
        t0 = time.perf_counter()
        log = train.train(net, batches, train.TrainConfig(seed=seed, **TINY_TRAIN))
        t1 = time.perf_counter()
        predict = metrics.model_predictor(net)
        if ctx.tracer is not None:
            predict = ctx.tracer.predictor(predict)
        report = metrics.evaluate(predict, list(dataset.load_dataset(eval_path)),
                                  ingest=ingest_config(cfg), caps=caps(cfg))
        t2 = time.perf_counter()
        loss = log[-1]["loss"]
        run.op(math.isfinite(loss))
        run.op(math.isfinite(report.ade) and report.n_samples == ROUND_EVAL_SCENES)
        train_s += t1 - t0
        run.did("eval", ROUND_EVAL_SCENES, t2 - t1)
        out[mode] = (report.ade, report.fde, loss)
    run.did("samples", len(batches), time.perf_counter() - t_round)
    run.did("train", len(out) * TINY_TRAIN["epochs"] * len(batches), train_s)
    return out


def ingest_tiny(ctx: Context) -> Run:
    """The tests' tiny caps over a few thousand scenes, one round at a time.

    A round ingests 64 scenes, trains a fresh tiny model for each input
    mode on them (4 epochs at B=32) and evaluates each on 32 held-out
    scenes, so a 30 s run makes 19 to 34 rounds. Latency is one scene's
    ingest; samples_per_s is the scenes over the rounds' whole time.
    ADE/FDE are averaged over the measured rounds.
    """
    run = Run(tail_percentile=TAIL_PERCENTILE["ingest-tiny"],
              probe=measure.PROBES[PROBE["ingest-tiny"]])
    set_up(ctx, run, lambda: [model.SvgNet(with_mode(TINY, m), seed=0)
                              for m in model.INPUT_MODES])

    with ctx.untraced():
        ref = tiny_round(ctx, 0, 0, Run())
    for mode, values in ref.items():
        ctx.check(run, "ingest-tiny", f"ade_fde_loss.{mode}", values)

    rounds: list[dict] = []
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline:
        part = Run()
        out, _, scale = ctx.timed(run, lambda: tiny_round(ctx, ctx.seed, len(rounds), part))
        run.merge(part, scale)
        rounds.append(out)

    def mean(mode: str, i: int) -> float:
        return float(np.mean([r[mode][i] for r in rounds]))
    run.extra = {
        "train.samples_per_s": (run.rate("train"), "1/s"),
        "metrics.evaluate.scenes_per_s": (run.rate("eval"), "1/s"),
        "train.loss_final": (mean("hist+scene+agents", 2), "loss"),
        "quality.ade_m": (mean("hist+scene+agents", 0), "m"),
        "quality.fde_m": (mean("hist+scene+agents", 1), "m"),
        "quality.ade_m_hist": (mean("hist", 0), "m"),
        "quality.ade_m_hist_scene": (mean("hist+scene", 0), "m"),
    }
    return run


WORKLOADS = {
    "train-paper-b4": train_paper_b4,
    "serve-paper-b1": serve_paper_b1,
    "ingest-tiny": ingest_tiny,
}
