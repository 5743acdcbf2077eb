import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from svgnet.cli import cli, main
from svgnet.svg import parse_document
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
        assert set(entry) == {"epoch", "step", "lr", "loss", "val_ade", "val_fde"}

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
        doc, ignored = parse_document(text)
        assert len(doc.paths) >= 3  # map paths + main history + gt + prediction
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
        odd_id = 'a"b<'
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
        doc, _ = parse_document(out.read_text())
        assert f"agent-{odd_id}" in {p.id for p in doc.paths}

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


@pytest.mark.parametrize("damage", ["truncated_blob", "broken_manifest", "d_m_mismatch",
                                    "extra_parameters"])
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
    else:
        change = {"d_m": 32} if damage == "d_m_mismatch" else {"n_decoder_blocks": 2}
        other = dict(TINY_RUN_CONFIG, model={**TINY_RUN_CONFIG["model"], **change})
        config = ["--config", str(workspace["dir"] / "other.json")]
        (workspace["dir"] / "other.json").write_text(json.dumps(other))
    assert _run_main(monkeypatch, "eval", "--checkpoint", str(out_dir / "model_final"),
                     "--data", str(workspace["data"]), *config) == 3
    assert capsys.readouterr().err.startswith("data error: ")


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


@pytest.mark.parametrize("section, key, value", [
    ("model", "n_commands", 1), ("ingest", "view_extent", 0), ("ingest", "k_heading", -3),
    ("ingest", "min_heading_disp", -0.5)])
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


@pytest.mark.parametrize("bad", ["csv_x", "map_polyline"])
def test_bad_argoverse_input_is_a_data_error(tmp_path, monkeypatch, capsys, bad):
    rows = [f"{1000 + 0.1 * i:.1f},aa,AGENT,{10 + i},5.0,PIT" for i in range(50)]
    polylines = [[[0.0, 0.0], [50.0, 0.0]]]
    if bad == "csv_x":
        rows[3] = "1000.3,aa,AGENT,ten,5.0,PIT"
    else:
        polylines.append([[0.0, 1.0, 2.0]])
    csv_path = tmp_path / "seq.csv"
    csv_path.write_text("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME\n" + "\n".join(rows) + "\n")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"PIT": polylines}))
    assert _run_main(monkeypatch, "import-argoverse", "--csv", str(csv_path),
                     "--map-json", str(map_path), "--out", str(tmp_path / "o.jsonl")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert ("'X'" in err and "seq.csv" in err) if bad == "csv_x" else "map.json" in err
