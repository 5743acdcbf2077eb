"""Run configuration: one JSON file covering model, training, ingest, synth."""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .dataset import IngestConfig, _atomic_write_json
from .model import ModelConfig
from .synth import SynthConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self) -> None:
        try:
            self.model.validate()
            self.train.validate()
            self.ingest.validate()
            self.synth.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.ingest.t_obs != self.model.t_obs or self.ingest.t_pred != self.model.t_pred:
            raise ConfigError("ingest t_obs/t_pred must match the model horizon")
        if self.ingest.max_commands != self.model.n_commands:
            raise ConfigError("ingest max_commands must equal model n_commands")

    def to_json_obj(self) -> dict:
        return {"model": asdict(self.model), "train": asdict(self.train),
                "ingest": asdict(self.ingest), "synth": asdict(self.synth)}

    def write_json(self, path: str | Path) -> None:
        _atomic_write_json(path, self.to_json_obj())


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "ingest": IngestConfig,
             "synth": SynthConfig}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. An int field takes no
    float or bool, a float field also takes an int, and None fits only a
    field whose annotation allows it."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(_fits(v, h) for v, h in zip(value, args)))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _build_section(cls, data: dict, section: str):
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r} section: {sorted(unknown)}")
    coerced = dict(data)
    for name, value in data.items():
        hint = hints[name]
        if not _fits(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{section}.{name} must be {expected}, got {value!r}")
        if isinstance(value, list):
            coerced[name] = tuple(value)
    return cls(**coerced)


def load_run_config(path: str | Path | None = None,
                    overrides: dict[str, object] | None = None) -> RunConfig:
    """Load a run config, applying dotted-key overrides like "train.seed".

    Unknown sections or keys are rejected before any work starts.
    """
    sections: dict[str, dict] = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        for name, value in raw.items():
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be a JSON object")
        sections = {k: dict(v) for k, v in raw.items()}

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        section, _, name = key.partition(".")
        if section not in _SECTIONS or not name:
            raise ConfigError(f"bad override key {key!r}")
        sections.setdefault(section, {})[name] = value

    # the ingest horizon follows the model unless set explicitly
    ingest_given = sections.get("ingest", {})
    cfg = RunConfig(**{
        name: _build_section(cls, sections.get(name, {}), name)
        for name, cls in _SECTIONS.items()
    })
    if "t_obs" not in ingest_given:
        cfg.ingest.t_obs = cfg.model.t_obs
    if "t_pred" not in ingest_given:
        cfg.ingest.t_pred = cfg.model.t_pred
    if "max_commands" not in ingest_given:
        cfg.ingest.max_commands = cfg.model.n_commands
    cfg.validate()
    return cfg
