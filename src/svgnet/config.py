"""Run configuration: one JSON file with model, train and synth sections."""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .dataset import _atomic_write_json
from .model import ModelConfig
from .synth import SynthConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    synth: SynthConfig

    def write_json(self, path: str | Path) -> None:
        _atomic_write_json(path, asdict(self))


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "synth": SynthConfig}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. An int field takes no
    float or bool, a float field also takes an int, and no field takes None."""
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
    """The section's config; a value of the wrong type or out of range is a ConfigError."""
    hints = typing.get_type_hints(cls)
    coerced = dict(data)
    for name, value in data.items():
        hint = hints[name]
        if not _fits(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{section}.{name} must be {expected}, got {value!r}")
        if isinstance(value, list):
            coerced[name] = tuple(value)
    try:
        return cls(**coerced)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path: str | Path | None = None,
                    overrides: dict[str, object] | None = None) -> RunConfig:
    """Load a run config, applying dotted-key overrides like "train.seed".

    An unknown section or key, a value of the wrong type and a setting out
    of range are each a ConfigError, raised before any work starts; every
    unknown section and key is named in one message. There is no ingest
    section: ModelConfig.ingest derives the horizon and the split limit.
    """
    sections: dict[str, dict] = {}
    unknown: list[str] = []
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        for name, value in raw.items():
            if name not in _SECTIONS:
                unknown.append(name)
            elif not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be a JSON object")
            else:
                sections[name] = dict(value)

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        section, _, name = key.partition(".")
        if section not in _SECTIONS or not name:
            raise ConfigError(f"bad override key {key!r}")
        sections.setdefault(section, {})[name] = value

    unknown += [f"{section}.{name}" for section, data in sections.items()
                for name in set(data) - {f.name for f in fields(_SECTIONS[section])}]
    if unknown:
        raise ConfigError(f"unknown config section(s) or key(s): {', '.join(sorted(unknown))}")

    return RunConfig(model=_build_section(ModelConfig, sections.get("model", {}), "model"),
                     train=_build_section(TrainConfig, sections.get("train", {}), "train"),
                     synth=_build_section(SynthConfig, sections.get("synth", {}), "synth"))
