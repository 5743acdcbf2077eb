import json

import pytest

from svgnet.config import ConfigError, load_run_config


@pytest.mark.parametrize("section, key, value", [
    ("model", "d_m", 16.0), ("model", "input_mode", None), ("model", "n_layers", True),
    ("train", "epochs", 2.5), ("train", "lr", None), ("train", "grad_clip_norm", "1"),
    ("ingest", "k_heading", 2.5), ("ingest", "view_extent", False),
    ("synth", "n_scenes", True), ("synth", "geometry_mix", [0.5, 0.5]),
    ("synth", "geometry_mix", [0.2, 0.4, "0.4"])])
def test_value_of_the_wrong_type_is_a_config_error(tmp_path, section, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be"):
        load_run_config(path)


def test_float_fields_take_ints_and_optional_fields_take_none(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"lr": 1, "grad_clip_norm": None},
                                "ingest": {"view_extent": 80},
                                "synth": {"geometry_mix": [0, 0.5, 0.5]}}))
    cfg = load_run_config(path)
    assert (cfg.train.lr, cfg.train.grad_clip_norm, cfg.ingest.view_extent) == (1, None, 80)
    assert cfg.synth.geometry_mix == (0, 0.5, 0.5)


@pytest.mark.parametrize("overrides", [{}, {"train.grad_clip_norm": 1.0,
                                            "model.input_mode": "hist"}])
def test_written_config_loads_back(tmp_path, overrides):
    cfg = load_run_config(None, overrides)
    cfg.write_json(tmp_path / "config.json")
    assert load_run_config(tmp_path / "config.json") == cfg
