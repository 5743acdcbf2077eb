import dataclasses
import json
import re

import pytest

from svgnet.config import ConfigError, load_run_config
from svgnet.dataset import IngestConfig


@pytest.mark.parametrize("section, key, value", [
    ("model", "d_m", 16.0), ("model", "input_mode", None), ("model", "n_layers", True),
    ("train", "epochs", 2.5), ("train", "lr", None),
    ("synth", "n_scenes", True),
    # ids pinned: pytest names a list value by its position, which shifts as cases change
    pytest.param("synth", "geometry_mix", [0.5, 0.5], id="synth-geometry_mix-value9"),
    pytest.param("synth", "geometry_mix", [0.2, 0.4, "0.4"], id="synth-geometry_mix-value10")])
def test_value_of_the_wrong_type_is_a_config_error(tmp_path, section, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be"):
        load_run_config(path)


@pytest.mark.parametrize("section, key, literal", [
    ("train", "weight_decay", "-5"), ("train", "weight_decay", "NaN"),
    ("train", "weight_decay", "Infinity"), ("train", "lr", "1e309"), ("train", "lr", "NaN"),
    ("train", "lr_decay_epochs", "1e309"), ("train", "lr_decay_epochs", "NaN"),
    ("synth", "speed_noise", "NaN"), ("synth", "speed_noise", "-1"),
    ("synth", "geometry_mix", "[NaN, 0.5, 0.5]"), ("synth", "lanes_max", "1"),
    ("synth", "lanes_max", "8"),
    ("synth", "agents_max", "0"), ("train", "seed", "-1"), ("synth", "seed", "-1"), ("model", "n_heads", "0")])
def test_out_of_range_setting_is_a_config_error_naming_the_field(tmp_path, section, key,
                                                                  literal):
    # written as raw JSON text: 1e309 is how a file spells a number that loads as inf
    path = tmp_path / "config.json"
    path.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
    with pytest.raises(ConfigError, match=rf"\b{key} must"):
        load_run_config(path)


@pytest.mark.parametrize("text", ['{"model": 5}', '{"train": [["seed", 3]]}',
                                  '{"synth": null}', '{"train": "seed"}'],
                         ids=["number", "pair-list", "null", "string"])
def test_section_that_is_not_an_object_is_a_config_error(tmp_path, text):
    # before, a list of pairs loaded as a section and any other value ended in exit 4
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"config section '\w+' must be a JSON object"):
        load_run_config(path)


def test_boundary_optimizer_settings_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"weight_decay": 0}}))
    cfg = load_run_config(path)
    assert cfg.train.weight_decay == 0


def test_float_fields_take_ints(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"lr": 1, "lr_decay_epochs": 3},
                                "synth": {"geometry_mix": [0, 0.5, 0.5]}}))
    cfg = load_run_config(path)
    assert (cfg.train.lr, cfg.train.lr_decay_epochs) == (1, 3)
    assert cfg.synth.geometry_mix == (0, 0.5, 0.5)


@pytest.mark.parametrize("overrides", [{}, {"train.weight_decay": 0.5,
                                            "model.input_mode": "hist"}])
def test_written_config_loads_back(tmp_path, overrides):
    cfg = load_run_config(None, overrides)
    cfg.write_json(tmp_path / "config.json")
    assert load_run_config(tmp_path / "config.json") == cfg


def test_ingest_horizon_and_split_limit_follow_the_model():
    cfg = load_run_config(None, {"model.t_obs": 12, "model.t_pred": 7, "model.n_commands": 5,
                                 "model.n_paths": 9, "model.n_agents": 4})
    assert cfg.model.ingest == IngestConfig(t_obs=12, t_pred=7, max_commands=5)
    assert cfg.model.caps == (9, 5, 4)


def test_ingest_section_is_named_with_the_other_unknown_keys(tmp_path):
    # before, an ingest section that matched the model loaded; the model section sets it now
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ingest": {"t_obs": 20, "t_pred": 30, "max_commands": 30},
                                "train": {"beta1": 0.9}}))
    with pytest.raises(ConfigError) as exc:
        load_run_config(path)
    assert str(exc.value) == "unknown config section(s) or key(s): ingest, train.beta1"


@pytest.mark.parametrize("text", ['[{"model": {}}]', '"model"'], ids=["list", "string"])
def test_config_root_that_is_not_an_object_is_a_config_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
        load_run_config(path)


@pytest.mark.parametrize("key", ["bogus", "train", "train.", "ingest.t_obs"])
def test_override_outside_the_sections_is_a_config_error(key):
    with pytest.raises(ConfigError, match=rf"^bad override key '{re.escape(key)}'$"):
        load_run_config(None, {key: 1})


@pytest.mark.parametrize("section, field", [(None, "model"), ("model", "d_m"),
                                            ("train", "lr"), ("synth", "n_scenes")])
def test_a_built_config_cannot_change(section, field):
    cfg = load_run_config(None)
    target = cfg if section is None else getattr(cfg, section)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(target, field, getattr(target, field))
