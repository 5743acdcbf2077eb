"""Tests of the benchmark's own code: statistics, slot fill and the tracer.

    PYTHONPATH=src python -m pytest svgbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from svgbench import measure, run, workloads
from svgbench.tracer import Tracer, slot_fill
from svgnet import checkpoint, dataset, metrics, model, synth, tensor, train
from svgnet.svg import CommandKind

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile ---------------------------------------------------------

def test_tail_at_a_fixed_percentile_counts_the_samples_beyond():
    samples = list(range(100, 0, -1))    # 1..100, unsorted
    assert measure.tail(samples, 90.0) == (90, 10)
    assert measure.tail(samples, 80.0) == (80, 20)
    assert measure.tail(samples, 100.0) == (100, 0)


def test_tail_percentile_stays_fixed_when_samples_are_few():
    # a run half as fast has half the samples: same percentile, fewer beyond
    assert measure.tail(list(range(1, 51)), 80.0) == (40, 10)
    assert measure.tail(list(range(1, 26)), 80.0) == (20, 5)


def test_tail_is_never_below_the_median():
    with pytest.raises(ValueError):
        measure.tail([1.0, 2.0, 3.0], 40.0)
    assert measure.tail([5.0] + [10.0 + i for i in range(10)], 50.0)[0] >= 10.0


def test_highest_tail_percentile_leaves_ten_samples_beyond():
    assert measure.highest_tail_percentile(100) == 90.0
    assert measure.highest_tail_percentile(19) == 100.0    # p47 would be below the median
    for n in (20, 37, 70, 2500):
        p = measure.highest_tail_percentile(n)
        assert measure.tail(list(range(n)), p)[1] == measure.TAIL_BEYOND


@pytest.mark.parametrize("workload, samples", [("serve-paper-b1", 59), ("ingest-tiny", 1216)])
def test_fixed_tail_percentiles_follow_the_rule(workload, samples):
    # fewest samples of a 30 s run at the parent commit's speed
    percentile = workloads.TAIL_PERCENTILE[workload]
    assert 50.0 <= percentile <= measure.highest_tail_percentile(samples)
    assert measure.tail(list(range(samples)), percentile)[1] >= measure.TAIL_BEYOND


def test_train_tail_is_the_second_slowest_step():
    for steps in (5, 6, 7):
        samples = list(range(steps))
        assert measure.tail(samples, workloads.TAIL_PERCENTILE["train-paper-b4"]) == (steps - 2, 1)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        measure.tail([], 90.0)


def test_rates_are_total_items_over_total_seconds():
    run = workloads.Run()
    run.did("samples", 4, 1.0)
    run.did("samples", 4, 3.0)
    run.did("eval", 32, 0.5)
    assert run.rate("samples") == 2.0
    assert run.rate("eval") == 64.0


def test_merge_scales_times_but_not_counts():
    part = workloads.Run()
    part.op(True)
    part.op(False)
    part.latencies_ms += [1.0, 3.0]
    part.did("samples", 4, 2.0)
    run = workloads.Run()
    run.merge(part, 0.5)
    assert (run.attempted, run.failed) == (2, 1)
    assert run.latencies_ms == [0.5, 1.5]
    assert run.rate("samples") == 4.0


# -- probes --------------------------------------------------------------------

def test_probe_scales_wall_time_to_the_nominal_speed():
    probe = measure.Probe("sleep", lambda: time.sleep(0.01), nominal_s=0.02)
    result, wall, scale = probe.timed(lambda: 7)
    assert result == 7 and wall >= 0.0
    assert 1.0 < scale <= 2.0     # each probe took at least 10 ms of the nominal 20 ms


def test_probes_do_not_call_svgnet():
    with Tracer() as tracer:
        for probe in measure.PROBES.values():
            assert probe.seconds() > 0.0
    assert not tracer.calls and not tracer.counts
    assert set(workloads.PROBE.values()) <= set(measure.PROBES)


def test_pin_to_quietest_cpu_pins_to_one_allowed_cpu():
    allowed = sorted(os.sched_getaffinity(0))
    try:
        cpu = measure.pin_to_quietest_cpu(allowed)
        assert cpu in allowed
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, allowed)


# -- slot fill -----------------------------------------------------------------

def hand_built_batch() -> dataset.Batch:
    """Two samples, caps (4 paths, 6 commands, 3 agents).

    Sample 0 has paths of 3 and 5 commands and one agent; sample 1 has one
    path of 6 commands and no agent: 3 of 8 path slots, 14 of 48 command
    slots and 1 of 6 agent slots are real.
    """
    b, n_p, n_c, n_a, t_obs = 2, 4, 6, 3, 20
    kinds = np.full((b, n_p, n_c), int(CommandKind.PAD), dtype=np.int16)
    command_mask = np.zeros((b, n_p, n_c), dtype=np.float32)
    path_mask = np.zeros((b, n_p), dtype=np.float32)
    for i, j, n in ((0, 0, 3), (0, 1, 5), (1, 0, 6)):
        kinds[i, j, :n] = int(CommandKind.LINE_TO)
        command_mask[i, j, :n] = 1.0
        path_mask[i, j] = 1.0
    agent_mask = np.zeros((b, n_a), dtype=np.float32)
    agent_mask[0, 0] = 1.0
    return dataset.Batch(
        command_kinds=kinds, command_args=np.full((b, n_p, n_c, 6), -1, dtype=np.int16),
        path_mask=path_mask, command_mask=command_mask,
        main_history=np.zeros((b, 2 * t_obs)), agent_histories=np.zeros((b, n_a, 2 * t_obs)),
        agent_mask=agent_mask, agent_frame_mask=np.zeros((b, n_a, t_obs), dtype=np.float32),
        targets=None, frame_to_city=np.zeros((b, 2, 3)))


def test_slot_fill_counts_real_slots():
    assert slot_fill(hand_built_batch()) == {"path": (3.0, 8), "command": (14.0, 48),
                                             "agent": (1.0, 6)}


def test_traced_make_batch_reports_fill_with_its_base():
    records = synth.generate_records(synth.SynthConfig(seed=3, n_scenes=3))
    cfg = workloads.TINY
    samples = [dataset.normalize_sample(r, workloads.ingest_config(cfg)) for r in records]
    real_paths = sum(min(len(s.scene_svg.paths), cfg.n_paths) for s in samples)
    real_agents = sum(min(len(s.other_ids), cfg.n_agents) for s in samples)
    with Tracer() as tracer:
        dataset.make_batch(samples, *workloads.caps(cfg))
    layer = tracer.per_layer()
    assert layer["dataset.path_slot_fill"][0] == pytest.approx(real_paths / (3 * cfg.n_paths))
    assert layer["dataset.path_slots"][0] == cfg.n_paths
    assert layer["dataset.agent_slot_fill"][0] == pytest.approx(real_agents / (3 * cfg.n_agents))
    assert layer["dataset.paths_dropped"][0] == pytest.approx(
        sum(max(len(s.scene_svg.paths) - cfg.n_paths, 0) for s in samples) / 3)


# -- tracer --------------------------------------------------------------------

PATCHED_OWNERS = (tensor, dataset, train, metrics, checkpoint, tensor.GradientTape,
                  train.AdamW, model.SvgNet, model.SceneEncoder, model.HistoryEncoder,
                  model.Decoder)


def patchable_state() -> dict:
    return {(id(o), k): v for o in PATCHED_OWNERS for k, v in vars(o).items()}


def tiny_batches(n: int, seed: int = 5) -> list:
    cfg = workloads.TINY
    records = synth.generate_records(synth.SynthConfig(seed=seed, n_scenes=n))
    return [dataset.make_batch([dataset.normalize_sample(r, workloads.ingest_config(cfg))],
                               *workloads.caps(cfg)) for r in records]


def test_wrappers_are_installed_and_restored():
    before = patchable_state()
    original_matmul = tensor.matmul
    with Tracer():
        assert tensor.matmul is not original_matmul
        assert dataset.make_batch is not before[(id(dataset), "make_batch")]
    after = patchable_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracing_leaves_predictions_and_training_unchanged():
    batches = tiny_batches(8)
    batch = dataset.concat_batches(batches)

    def run() -> tuple:
        net = model.SvgNet(workloads.TINY, seed=0)
        log = train.train(net, batches, train.TrainConfig(epochs=1, batch_size=4, seed=0))
        return net.predict(batch), [e["loss"] for e in log], net.state_arrays()

    plain_pred, plain_loss, plain_state = run()
    with Tracer() as tracer:
        traced_pred, traced_loss, traced_state = run()
    np.testing.assert_array_equal(traced_pred, plain_pred)
    assert traced_loss == plain_loss
    for name, value in plain_state.items():
        np.testing.assert_array_equal(traced_state[name], value)

    layer = tracer.per_layer()
    assert layer["train.backward_s"][0] > 0
    assert layer["model.scene_encoder.bwd_s"][0] > 0
    assert layer["tensor.tape.nodes"][0] > 0
    assert layer["tensor.matmul.gflop"][0] > 0
    assert layer["tensor.tape.retained_mb"][0] > 0


def test_paused_tracer_records_nothing():
    batch = tiny_batches(1)[0]
    net = model.SvgNet(workloads.TINY, seed=0)
    with Tracer() as tracer:
        tracer.paused = True
        net.predict(batch)
    assert not tracer.calls and not tracer.counts


def test_workload_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_per_layer_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(Tracer().per_layer()) | set(workloads.EXTRA_UNITS)
    assert names == {m["name"] for m in doc["per_layer"]}


# -- output check and command line ---------------------------------------------

def test_reference_mismatch_is_a_failed_operation(tmp_path):
    ctx = workloads.Context(seed=0, seconds=1.0, work=tmp_path,
                            reference={"x": [1.0, 2.0]})
    run = workloads.Run()
    assert ctx.check(run, "ingest-tiny", "x", [1.0, 2.0])
    assert not ctx.check(run, "ingest-tiny", "x", [1.0, 2.1])
    assert not ctx.check(run, "ingest-tiny", "missing", [1.0])
    assert (run.attempted, run.failed) == (3, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "svgbench", tmp_path / "svgbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "svgbench/run.py", "--workload", "ingest-tiny",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
