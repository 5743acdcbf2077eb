import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from model_helpers import read_svg_paths
from svgnet import cli as cli_module
from svgnet.cli import cli, main
from svgnet.dataset import load_dataset
from svgnet.synth import SynthConfig, generate_records

TINY_RUN_CONFIG = {
    "model": {"d_m": 16, "d_z": 8, "d_f": 16, "d_profiler": 8, "n_layers": 1,
              "n_heads": 1, "n_paths": 8, "n_commands": 10, "n_agents": 3},
    "train": {"epochs": 2, "batch_size": 4, "seed": 3},
    "synth": {"seed": 1, "n_scenes": 8, "agents_max": 3, "lanes_max": 3},
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path, runner):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(TINY_RUN_CONFIG))
    data = tmp_path / "train.jsonl"
    res = runner.invoke(cli, ["synth-gen", "--config", str(cfg_path), "--out", str(data)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return {"cfg": cfg_path, "data": data, "dir": tmp_path}


class TestSynthGen:
    def test_writes_jsonl_and_manifest(self, workspace):
        assert workspace["data"].exists()
        manifest = json.loads(
            (workspace["dir"] / "train.jsonl.manifest.json").read_text())
        assert manifest["n_scenes"] == 8

    def test_identical_checksums(self, tmp_path, runner):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TINY_RUN_CONFIG))
        sums = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            res = runner.invoke(cli, ["synth-gen", "--config", str(cfg), "--out", str(out)],
                                catch_exceptions=False)
            assert res.exit_code == 0
            sums.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert sums[0] == sums[1]

    def test_unwritable_path_nonzero_exit(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TINY_RUN_CONFIG))
        monkeypatch.setattr("sys.argv", ["svgnet", "synth-gen", "--config", str(cfg),
                                         "--out", "/proc/definitely/not/writable.jsonl"])
        assert main() != 0

    def test_unknown_config_key_exit_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"bogus_knob": 1}}))
        monkeypatch.setattr("sys.argv", ["svgnet", "synth-gen", "--config", str(cfg),
                                         "--out", str(tmp_path / "x.jsonl")])
        assert main() == 2


class TestTrainEvalPredict:
    @pytest.fixture
    def trained(self, workspace, runner):
        out_dir = workspace["dir"] / "run"
        res = runner.invoke(cli, ["train", "--config", str(workspace["cfg"]),
                                  "--data", str(workspace["data"]),
                                  "--out-dir", str(out_dir)], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        return out_dir

    def test_train_outputs(self, trained):
        assert (trained / "model_final.bin").exists()
        assert (trained / "config.json").exists()
        log_lines = (trained / "loss_log.jsonl").read_text().splitlines()
        entry = json.loads(log_lines[0])
        assert list(entry) == ["epoch", "step", "lr", "loss"]

    def test_eval_model_and_baseline(self, trained, workspace, runner, tmp_path):
        out_json = tmp_path / "metrics.json"
        res = runner.invoke(cli, ["eval", "--checkpoint", str(trained / "model_final"),
                                  "--data", str(workspace["data"]),
                                  "--out", str(out_json)], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        report = json.loads(res.output.strip().splitlines()[-1])
        assert {"ade", "fde", "miss_rate", "n_samples"} <= set(report)
        assert out_json.exists()
        res = runner.invoke(cli, ["eval", "--checkpoint", str(trained / "model_final"),
                                  "--data", str(workspace["data"]), "--baseline"],
                            catch_exceptions=False)
        assert res.exit_code == 0

    def test_eval_input_mode_pair(self, trained, workspace, runner):
        reports = {}
        for mode in ("hist", "hist+scene+agents"):
            res = runner.invoke(cli, ["eval", "--checkpoint", str(trained / "model_final"),
                                      "--data", str(workspace["data"]),
                                      "--input-mode", mode], catch_exceptions=False)
            assert res.exit_code == 0, res.output
            reports[mode] = json.loads(res.output.strip().splitlines()[-1])
        assert reports["hist"]["n_samples"] == reports["hist+scene+agents"]["n_samples"]

    def test_predict_line_count(self, trained, workspace, runner, tmp_path):
        out = tmp_path / "preds.jsonl"
        res = runner.invoke(cli, ["predict", "--checkpoint", str(trained / "model_final"),
                                  "--data", str(workspace["data"]), "--out", str(out)],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert len(lines) == 8
        obj = json.loads(lines[0])
        assert obj["scene_id"].startswith("synth-")
        assert np.asarray(obj["prediction"]).shape == (30, 2)

    def test_visualize_contract(self, trained, workspace, runner, tmp_path):
        out = tmp_path / "scene.svg"
        res = runner.invoke(cli, ["visualize", "--checkpoint", str(trained / "model_final"),
                                  "--data", str(workspace["data"]),
                                  "--scene-id", "synth-000000", "--out", str(out)],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
        text = out.read_text()
        assert len(read_svg_paths(text)) >= 3  # map paths + main history + gt + prediction
        import re
        scores = [float(s) for s in re.findall(r'data-score="([^"]+)"', text)]
        assert abs(sum(scores) - 1.0) < 1e-5

    def test_visualize_missing_scene_exit_3(self, trained, workspace, monkeypatch):
        monkeypatch.setattr("sys.argv", [
            "svgnet", "visualize", "--checkpoint", str(trained / "model_final"),
            "--data", str(workspace["data"]), "--scene-id", "nope",
            "--out", str(workspace["dir"] / "x.svg")])
        assert main() == 3

    def test_visualize_escapes_agent_ids(self, trained, workspace, runner, tmp_path):
        # tab and LF survive only as character references in an attribute
        odd_id = 'a"b< & \t \n é'
        lines = workspace["data"].read_text().splitlines()
        obj = json.loads(lines[0])
        others = [a for a in obj["agents"] if not a["is_main"]]
        assert others
        others[0]["agent_id"] = odd_id
        data = tmp_path / "odd.jsonl"
        data.write_text(json.dumps(obj) + "\n")
        out = tmp_path / "odd.svg"
        res = runner.invoke(cli, ["visualize", "--checkpoint", str(trained / "model_final"),
                                  "--data", str(data), "--scene-id", obj["scene_id"],
                                  "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        assert f"agent-{odd_id}" in {path_id for path_id, _ in read_svg_paths(out.read_text())}

    def test_hist_only_visualization_floor_opacity(self, trained, workspace, runner,
                                                   tmp_path):
        out = tmp_path / "hist.svg"
        res = runner.invoke(cli, ["visualize", "--checkpoint", str(trained / "model_final"),
                                  "--data", str(workspace["data"]),
                                  "--scene-id", "synth-000001", "--out", str(out),
                                  "--input-mode", "hist"], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        import re
        text = out.read_text()
        path_elems = [m for m in re.findall(r"<path [^>]*>", text) if 'id="lane' in m]
        assert path_elems
        for elem in path_elems:
            op = float(re.search(r'opacity="([^"]+)"', elem).group(1))
            assert op == pytest.approx(0.15, abs=1e-6)

    @pytest.mark.parametrize("command", ["eval", "predict", "visualize"])
    def test_outputs_into_a_new_directory(self, trained, workspace, runner, tmp_path, command):
        # before, each did all its work (eval printed its report) and then exited 3
        # on the missing directory, naming the temp file
        new = tmp_path / "new" / "dir"
        argv = {"eval": ["--out", new / "report.json", "--per-sample-csv", new / "rows.csv"],
                "predict": ["--out", new / "pred.jsonl"],
                "visualize": ["--scene-id", "synth-000000", "--out", new / "scene.svg"]}[command]
        res = runner.invoke(cli, [command, "--checkpoint", str(trained / "model_final"),
                                  "--data", str(workspace["data"]), *map(str, argv)],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
        assert sorted(new.iterdir()) == sorted(a for a in argv if isinstance(a, Path))

    @pytest.mark.parametrize("scale", [1e50, 1e305])
    def test_eval_on_agents_beyond_1e8_m_is_a_data_error(self, trained, workspace, monkeypatch,
                                                         capsys, scale):
        # before, eval exited 0 and scored this scene "ade": NaN (x1e50) or 0.0 (x1e305)
        obj = json.loads(workspace["data"].read_text().splitlines()[0])
        for agent in obj["agents"]:
            agent["positions"] = [[f, x * scale, y * scale] for f, x, y in agent["positions"]]
        data = workspace["dir"] / "far.jsonl"
        data.write_text(json.dumps(obj, allow_nan=False) + "\n")
        assert _run_main(monkeypatch, "eval", "--checkpoint", str(trained / "model_final"),
                         "--data", str(data)) == 3
        assert f"{data}: no usable records" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["train", "--out-dir", "run"],
    ["eval", "--checkpoint", "none", "--baseline"],
], ids=["train", "eval"])
def test_records_without_targets_are_a_data_error(tmp_path, runner, monkeypatch, capsys,
                                                  command):
    cfg = dict(TINY_RUN_CONFIG, synth={**TINY_RUN_CONFIG["synth"], "n_scenes": 4,
                                       "n_frames": 30})
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "short.jsonl"
    res = runner.invoke(cli, ["synth-gen", "--config", str(cfg_path), "--out", str(data)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["svgnet", *command, "--config", str(cfg_path),
                                     "--data", str(data)])
    assert main() == 3
    assert "scene 'synth-000000' has no prediction target" in capsys.readouterr().err


def test_baseline_on_one_frame_history_is_a_data_error(workspace, tmp_path, monkeypatch):
    cfg = dict(TINY_RUN_CONFIG, model={**TINY_RUN_CONFIG["model"], "t_obs": 1})
    cfg_path = tmp_path / "one_frame.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setattr("sys.argv", ["svgnet", "eval", "--checkpoint", str(tmp_path / "none"),
                                     "--data", str(workspace["data"]),
                                     "--config", str(cfg_path), "--baseline"])
    assert main() == 3


def _run_main(monkeypatch, *argv) -> int:
    monkeypatch.setattr("sys.argv", ["svgnet", *argv])
    return main()


@pytest.mark.parametrize("damage", ["truncated_blob", "broken_manifest", "duplicate_name",
                                    "d_m_mismatch", "extra_parameters"])
def test_bad_checkpoint_is_a_data_error(workspace, runner, monkeypatch, capsys, damage):
    out_dir = workspace["dir"] / "run"
    res = runner.invoke(cli, ["train", "--config", str(workspace["cfg"]),
                              "--data", str(workspace["data"]), "--out-dir", str(out_dir)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    config = []
    if damage == "truncated_blob":
        blob = out_dir / "model_final.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
    elif damage == "broken_manifest":
        (out_dir / "model_final.json").write_text('{"format_version": 1, "params": [')
    elif damage == "duplicate_name":
        manifest = json.loads((out_dir / "model_final.json").read_text())
        manifest["params"][1]["name"] = manifest["params"][0]["name"]
        (out_dir / "model_final.json").write_text(json.dumps(manifest))
    else:
        change = {"d_m": 32} if damage == "d_m_mismatch" else {"n_decoder_blocks": 2}
        other = dict(TINY_RUN_CONFIG, model={**TINY_RUN_CONFIG["model"], **change})
        config = ["--config", str(workspace["dir"] / "other.json")]
        (workspace["dir"] / "other.json").write_text(json.dumps(other))
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(out_dir / "model_final"),
                     "--data", str(workspace["data"]), *config) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert ("is listed twice" in err) == (damage == "duplicate_name")


def test_checkpoint_with_a_nan_is_a_data_error(workspace, runner, monkeypatch, capsys):
    # before, eval exited 0 with "ade": NaN, "fde": NaN, "miss_rate": 0.0
    out_dir = workspace["dir"] / "run"
    res = runner.invoke(cli, ["train", "--config", str(workspace["cfg"]),
                              "--data", str(workspace["data"]), "--out-dir", str(out_dir)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    manifest = json.loads((out_dir / "model_final.json").read_text())
    (entry,) = [e for e in manifest["params"] if e["name"] == "decoder.head.l3.b"]
    blob = np.fromfile(out_dir / "model_final.bin", dtype="<f4")
    blob[entry["offset"]] = np.nan
    blob.tofile(out_dir / "model_final.bin")
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(out_dir / "model_final"),
                     "--data", str(workspace["data"])) == 3
    assert capsys.readouterr().err == ("data error: model_final.bin: entry "
                                       "'decoder.head.l3.b' holds a non-finite value\n")


@pytest.mark.parametrize("command", ["eval", "predict", "visualize"])
def test_commands_that_load_a_checkpoint_take_no_seed(monkeypatch, capsys, command):
    # every parameter comes from the checkpoint, so a seed would change nothing
    assert _run_main(monkeypatch, command, "--seed", "0") == 2
    assert "No such option '--seed'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["synth-gen", "--seed", "-1"],
                                  ["synth-gen", "--first-index", "-1"],
                                  ["train", "--seed", "-1"]],
                         ids=["synth-seed", "first-index", "train-seed"])
def test_negative_seed_or_first_index_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # before, numpy rejected the seed with exit 4, train only after reading the data;
    # the data file is not JSON, so reading it would exit 3
    data = tmp_path / "unread.jsonl"
    data.write_text("not json\n")
    if argv[0] == "synth-gen":
        argv = [*argv, "--out", str(tmp_path / "out.jsonl")]
    else:
        argv = [*argv, "--data", str(data), "--out-dir", str(tmp_path / "run")]
    assert _run_main(monkeypatch, *argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["unread.jsonl"]


def test_json_line_that_is_not_an_object_is_skipped(workspace, monkeypatch, capsys):
    # before, a line 5 or null ended eval with a TypeError (exit 4)
    data = workspace["dir"] / "mixed.jsonl"
    data.write_text(workspace["data"].read_text() + "5\nnull\n")
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(workspace["dir"] / "none"),
                     "--data", str(data), "--config", str(workspace["cfg"]),
                     "--baseline") == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 8


def test_record_with_a_bad_id_is_skipped(workspace, monkeypatch, capsys, caplog):
    # before, eval printed the report, then failed writing the CSV (exit 4)
    obj = json.loads(workspace["data"].read_text().splitlines()[0])
    obj["scene_id"] = "lone\ud800"
    data = workspace["dir"] / "bad_id.jsonl"
    data.write_text(workspace["data"].read_text() + json.dumps(obj) + "\n")
    rows = workspace["dir"] / "rows.csv"
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(workspace["dir"] / "none"),
                     "--data", str(data), "--config", str(workspace["cfg"]), "--baseline",
                     "--per-sample-csv", str(rows)) == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 8
    assert "line 9: bad or missing field 'scene_id'" in caplog.text
    assert len(rows.read_text().splitlines()) == 1 + 8


@pytest.mark.parametrize("period", [0, -1])
def test_nonpositive_lr_decay_epochs_is_a_config_error(workspace, monkeypatch, capsys, period):
    cfg = dict(TINY_RUN_CONFIG, train={**TINY_RUN_CONFIG["train"], "lr_decay_epochs": period})
    cfg_path = workspace["dir"] / "decay.json"
    cfg_path.write_text(json.dumps(cfg))
    assert _run_main(monkeypatch, "train", "--config", str(cfg_path),
                     "--data", str(workspace["data"]),
                     "--out-dir", str(workspace["dir"] / "run")) == 2
    assert "lr_decay_epochs must be positive" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_loss_stops_training_before_any_write(workspace, monkeypatch, capsys):
    cfg = dict(TINY_RUN_CONFIG, train={**TINY_RUN_CONFIG["train"], "lr": 1e30})
    cfg_path = workspace["dir"] / "diverge.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = workspace["dir"] / "run"
    assert _run_main(monkeypatch, "train", "--config", str(cfg_path),
                     "--data", str(workspace["data"]), "--out-dir", str(out_dir)) == 4
    assert "error: step 1 (epoch 0): loss is" in capsys.readouterr().err
    assert [p.name for p in out_dir.iterdir()] == ["config.json"]


def test_non_finite_map_coordinate_is_a_data_error(tmp_path, monkeypatch, capsys):
    # synth scene 0 with a NaN at an interior vertex of lane0: before, it
    # trained (exit 0) on a lane missing two vertices
    obj = generate_records(SynthConfig(seed=0, n_scenes=1))[0].to_json_obj()
    obj["map_polylines"][0][5][0] = float("nan")
    data = tmp_path / "nan.jsonl"
    data.write_text(json.dumps(obj) + "\n")
    assert _run_main(monkeypatch, "train", "--data", str(data),
                     "--out-dir", str(tmp_path / "run")) == 3
    assert "no usable records" in capsys.readouterr().err


def test_string_is_main_is_a_data_error(tmp_path, monkeypatch, caplog):
    # before, "false" counted as a second main agent and the record was
    # skipped with "expected exactly 1 main agent, got 2"
    obj = generate_records(SynthConfig(seed=0, n_scenes=1))[0].to_json_obj()
    obj["agents"][1]["is_main"] = "false"
    data = tmp_path / "main.jsonl"
    data.write_text(json.dumps(obj) + "\n")
    assert _run_main(monkeypatch, "train", "--data", str(data),
                     "--out-dir", str(tmp_path / "run")) == 3
    assert "'agents[1].is_main'" in caplog.text


@pytest.mark.parametrize("section, key, value", [("model", "n_commands", 1)])
def test_bad_ingest_setting_is_a_config_error(workspace, monkeypatch, capsys, section, key,
                                              value):
    cfg = dict(TINY_RUN_CONFIG, **{section: {**TINY_RUN_CONFIG.get(section, {}), key: value}})
    cfg_path = workspace["dir"] / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = workspace["dir"] / "run"
    assert _run_main(monkeypatch, "train", "--config", str(cfg_path),
                     "--data", str(workspace["data"]), "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out_dir.exists()


def test_config_value_of_the_wrong_type_is_a_config_error(workspace, monkeypatch, capsys):
    # a fractional epoch count passes the range check, and range() would fail with
    # a TypeError (exit 4) after the data was read
    cfg = dict(TINY_RUN_CONFIG, train={**TINY_RUN_CONFIG["train"], "epochs": 2.5})
    cfg_path = workspace["dir"] / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = workspace["dir"] / "run"
    assert _run_main(monkeypatch, "train", "--config", str(cfg_path),
                     "--data", str(workspace["data"]), "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == "config error: train.epochs must be int, got 2.5\n"
    assert not out_dir.exists()


# config keys that are module constants now, at the values they always held
RETIRED_KEYS = {
    "train": {"lr_decay": 0.9, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
              "grad_clip_norm": None},
    "synth": {"lanes_min": 2, "agents_min": 1, "speed_min": 5.0, "speed_max": 12.0,
              "frame_rate": 10.0},
}
# the retired ingest section at the tiny model's horizon and split limit, with the
# three keys it lost to constants; the model section sets the first three now
RETIRED_INGEST = {"t_obs": 20, "t_pred": 30, "max_commands": 10, "k_heading": 5,
                  "min_heading_disp": 0.1, "view_extent": 100.0}


def _train_then_edit_config(workspace, monkeypatch, capsys, edit) -> Path:
    """A tiny run whose config.json is then changed by edit(dict); its directory."""
    out_dir = workspace["dir"] / "run"
    assert _run_main(monkeypatch, "train", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]), "--out-dir", str(out_dir)) == 0
    written = json.loads((out_dir / "config.json").read_text())
    assert list(written) == ["model", "train", "synth"]
    edit(written)
    (out_dir / "config.json").write_text(json.dumps(written))
    capsys.readouterr()
    return out_dir


def test_config_that_sets_a_retired_key_is_a_config_error(workspace, monkeypatch, capsys):
    # before, these keys loaded, so train ran and an eval next to its config.json scored
    message = ("config error: unknown config section(s) or key(s): ingest, " + ", ".join(sorted(
        f"{section}.{key}" for section, keys in RETIRED_KEYS.items() for key in keys)) + "\n")
    old = {section: {**TINY_RUN_CONFIG.get(section, {}), **keys}
           for section, keys in RETIRED_KEYS.items()}
    cfg_path = workspace["dir"] / "old.json"
    cfg_path.write_text(json.dumps({**TINY_RUN_CONFIG, **old, "ingest": RETIRED_INGEST}))
    out_dir = workspace["dir"] / "run"
    assert _run_main(monkeypatch, "train", "--config", str(cfg_path),
                     "--data", str(workspace["data"]), "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == message
    assert not out_dir.exists()

    def add_retired(written):
        written["ingest"] = RETIRED_INGEST
        for section, keys in RETIRED_KEYS.items():
            written[section].update(keys)

    out_dir = _train_then_edit_config(workspace, monkeypatch, capsys, add_retired)
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(out_dir / "model_final"),
                     "--data", str(workspace["data"])) == 2
    assert capsys.readouterr().err == message


def test_config_with_an_ingest_section_is_a_config_error(workspace, monkeypatch, capsys):
    # before, an ingest section equal to the model's horizon and split limit loaded
    ingest = {"t_obs": 20, "t_pred": 30, "max_commands": 10}
    message = "config error: unknown config section(s) or key(s): ingest\n"
    cfg_path = workspace["dir"] / "with_ingest.json"
    cfg_path.write_text(json.dumps({**TINY_RUN_CONFIG, "ingest": ingest}))
    out_dir = workspace["dir"] / "run"
    assert _run_main(monkeypatch, "train", "--config", str(cfg_path),
                     "--data", str(workspace["data"]), "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == message
    assert not out_dir.exists()

    out_dir = _train_then_edit_config(workspace, monkeypatch, capsys,
                                      lambda written: written.update(ingest=ingest))
    for command in ("eval", "predict"):
        out = ["--out", str(workspace["dir"] / "p.jsonl")] if command == "predict" else []
        assert _run_main(monkeypatch, command, "--checkpoint", str(out_dir / "model_final"),
                         "--data", str(workspace["data"]), *out) == 2
        assert capsys.readouterr().err == message
    assert not (workspace["dir"] / "p.jsonl").exists()


@pytest.mark.parametrize("name", ["basic_format", "bogus", "10"])
def test_unknown_log_level_is_a_config_error(workspace, monkeypatch, capsys, name):
    # before, basic_format (a logging attribute that is not a level) exited 4 and
    # any other unknown name logged at WARNING
    monkeypatch.setenv("SVGNET_LOG", name)
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(workspace["dir"] / "none"),
                     "--data", str(workspace["data"]), "--config", str(workspace["cfg"]),
                     "--baseline") == 2
    assert capsys.readouterr().err == (f"config error: SVGNET_LOG={name!r} is not a "
                                       "logging level name\n")


@pytest.mark.parametrize("name", ["error", "Info", "WARN"])
def test_log_level_is_read_by_name(workspace, monkeypatch, name):
    monkeypatch.setenv("SVGNET_LOG", name)
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(workspace["dir"] / "none"),
                     "--data", str(workspace["data"]), "--config", str(workspace["cfg"]),
                     "--baseline") == 0


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
def test_train_writes_the_same_weights_on_one_or_two_blas_threads(tmp_path):
    # before, the scene encoder's weight gradients summed their ~1,000 rows in
    # a different order on two OpenBLAS threads, and the checkpoints differed
    cfg = {"model": {"d_m": 64, "d_z": 16, "d_f": 32, "d_profiler": 16, "n_layers": 1,
                     "n_heads": 2},
           "train": {"epochs": 1, "batch_size": 4}, "synth": {"n_scenes": 8}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "train.jsonl"
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def svgnet(*argv, threads="1"):
        subprocess.run([sys.executable, "-m", "svgnet.cli", *argv], check=True,
                       capture_output=True, timeout=300,
                       env={**env, "OPENBLAS_NUM_THREADS": threads})

    svgnet("synth-gen", "--config", str(cfg_path), "--out", str(data))
    for threads in ("1", "2"):
        svgnet("train", "--config", str(cfg_path), "--data", str(data),
               "--out-dir", str(tmp_path / threads), threads=threads)
    assert ((tmp_path / "1" / "model_final.bin").read_bytes()
            == (tmp_path / "2" / "model_final.bin").read_bytes())


ARGOVERSE_HEADER = "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME"
ARGOVERSE_ROWS = [f"{1000 + 0.1 * i:.1f},aa,AGENT,{10 + i},5.0,PIT" for i in range(50)]
ARGOVERSE_LANE = [[0.0, 0.0], [50.0, 0.0]]


def _argoverse_files(tmp_path, rows=ARGOVERSE_ROWS, polylines=(ARGOVERSE_LANE,),
                     header=ARGOVERSE_HEADER):
    """A one-sequence CSV and its map JSON for import-argoverse."""
    csv_path = tmp_path / "seq.csv"
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"PIT": list(polylines)}))
    return csv_path, map_path


@pytest.mark.parametrize("bad", ["csv_x", "csv_far", "csv_repeat", "csv_type", "csv_two_cities",
                                 "csv_unknown_city", "csv_short_row", "csv_track_id",
                                 "map_polyline", "map_far"])
def test_bad_argoverse_input_is_a_data_error(tmp_path, monkeypatch, capsys, bad):
    # before, csv_repeat saved x = 999 m on frame 5, in csv_type track bb, whose
    # one row says AGENT, took the main-agent role from aa, csv_two_cities and
    # csv_unknown_city imported with no lanes, csv_short_row exited 4, and
    # csv_track_id imported an agent id that no SVG can hold
    rows, polylines, header = list(ARGOVERSE_ROWS), [ARGOVERSE_LANE], ARGOVERSE_HEADER
    if bad == "csv_x":
        rows[3] = "1000.3,aa,AGENT,ten,5.0,PIT"
    elif bad == "csv_far":
        rows[3] = "1000.3,aa,AGENT,2e8,5.0,PIT"
    elif bad == "csv_repeat":
        rows.insert(6, "1000.5,aa,AGENT,999,5.0,PIT")
    elif bad == "csv_type":
        rows[0] = "1000.0,aa,OTHERS,10,5.0,PIT"
        rows.insert(1, "1000.0,bb,AGENT,30,5.0,PIT")
    elif bad == "csv_two_cities":
        rows[0] = rows[0].replace("PIT", "MIA")
    elif bad == "csv_unknown_city":
        rows = [row.replace("PIT", "PTT") for row in rows]
    elif bad == "csv_short_row":
        # TRACK_ID is last, so a five-field row leaves it unset
        header = "X,Y,TIMESTAMP,CITY_NAME,OBJECT_TYPE,TRACK_ID"
        rows = [f"{10 + i},5.0,{1000 + 0.1 * i:.1f},PIT,AGENT,aa" for i in range(50)]
        rows[3] = rows[3].removesuffix(",aa")
    elif bad == "csv_track_id":
        rows = [row.replace(",aa,", ",a\x01b,") for row in rows]
    elif bad == "map_polyline":
        polylines.append([[0.0, 1.0, 2.0]])
    else:
        polylines.append([[0.0, 1.0], [0.0, 2e8]])
    csv_path, map_path = _argoverse_files(tmp_path, rows, polylines, header)
    assert _run_main(monkeypatch, "import-argoverse", "--csv", str(csv_path),
                     "--map-json", str(map_path), "--out", str(tmp_path / "o.jsonl")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    if bad == "csv_x":
        assert "'X'" in err and "seq.csv" in err
    elif bad == "csv_far":
        assert "seq.csv: track 'aa': coordinate beyond ±1e8 m" in err
    elif bad == "csv_repeat":
        assert "seq.csv: track 'aa' has two rows at timestamp 1000.5" in err
    elif bad == "csv_type":
        assert "seq.csv: track 'aa' is both 'OTHERS' and 'AGENT'" in err
    elif bad == "csv_two_cities":
        assert "seq.csv: rows name more than one city: ['MIA', 'PIT']" in err
    elif bad == "csv_unknown_city":
        assert "seq.csv: city 'PTT' is not in the map JSON, which names ['PIT']" in err
    elif bad == "csv_short_row":
        assert "line 5: bad or missing field 'TRACK_ID' (missing value in seq.csv)" in err
    elif bad == "csv_track_id":
        assert "cannot save field 'agents[0].agent_id'" in err
    else:
        assert "map.json" in err and ("beyond ±1e8 m" in err) == (bad == "map_far")


def test_import_argoverse_writes_a_loadable_dataset(tmp_path, monkeypatch, capsys):
    csv_path, map_path = _argoverse_files(tmp_path)
    out = tmp_path / "sub" / "seq.jsonl"
    assert _run_main(monkeypatch, "import-argoverse", "--csv", str(csv_path),
                     "--map-json", str(map_path), "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote 1 records to {out}\n"
    (rec,) = load_dataset(out)
    assert rec.scene_id == "seq" and rec.main_agent.frames.size == 50
    assert len(rec.map_polylines) == 1


def test_import_argoverse_from_a_directory_without_a_csv_is_a_data_error(tmp_path, monkeypatch,
                                                                       capsys):
    # before, it printed "wrote 0 records" and wrote an empty JSONL
    _, map_path = _argoverse_files(tmp_path)
    csv_dir = tmp_path / "sequences"
    csv_dir.mkdir()
    out = tmp_path / "o.jsonl"
    assert _run_main(monkeypatch, "import-argoverse", "--csv", str(csv_dir),
                     "--map-json", str(map_path), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"data error: {csv_dir}: directory holds no *.csv file\n"
    assert not out.exists()


# "Köln" in Latin-1: the 0xf6 byte is not UTF-8
NOT_UTF8 = "Köln".encode("latin-1")


@pytest.mark.parametrize("reader", ["jsonl", "config", "csv", "map_json"])
def test_undecodable_input_gets_its_exit_code(workspace, monkeypatch, capsys, reader):
    # before, each of these readers ended with a UnicodeDecodeError (exit 4)
    tmp_path = workspace["dir"]
    if reader == "jsonl":
        # the bad line is skipped and the other eight are scored
        data = tmp_path / "mixed.jsonl"
        data.write_bytes(workspace["data"].read_bytes() + b'{"scene_id": "' + NOT_UTF8 + b'"}\n')
        assert _run_main(monkeypatch, "eval", "--checkpoint", str(tmp_path / "none"),
                         "--data", str(data), "--config", str(workspace["cfg"]),
                         "--baseline") == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 8
    elif reader == "config":
        cfg_path = tmp_path / "latin1.json"
        cfg_path.write_bytes(b'{"synth": {"seed": 1}, "' + NOT_UTF8 + b'": {}}')
        assert _run_main(monkeypatch, "train", "--config", str(cfg_path),
                         "--data", str(workspace["data"]),
                         "--out-dir", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err.startswith(f"config error: config {cfg_path} is not")
        assert not (tmp_path / "run").exists()
    else:
        csv_path, map_path = _argoverse_files(tmp_path)
        bad_path = csv_path if reader == "csv" else map_path
        bad_path.write_bytes(bad_path.read_bytes().replace(b"PIT", NOT_UTF8))
        assert _run_main(monkeypatch, "import-argoverse", "--csv", str(csv_path),
                         "--map-json", str(map_path), "--out", str(tmp_path / "o.jsonl")) == 3
        assert capsys.readouterr().err.startswith(f"data error: {bad_path.name}: not UTF-8")
        assert not (tmp_path / "o.jsonl").exists()
