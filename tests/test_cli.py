import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from svgnet.cli import cli, main
from svgnet.svg import parse_document

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
