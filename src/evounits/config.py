"""Declarative experiment configuration: presets, mapping round-trip, validation.

Every section is a frozen dataclass checked by ``schema.check_fields``, and
every error names the dotted YAML field."""

from __future__ import annotations

import copy
from dataclasses import MISSING, dataclass, fields

from .architecture import Architecture
from .cartpole import SwingUpParams, check_arch
from .errors import ConfigError
from .optimizers import PipelineConfig
from .schema import at_least, check_fields, check_value, to_plain

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SeedsSection:
    master_seed: int = at_least(0, 0)
    weight_seed: int = at_least(0, 0)

    def __post_init__(self):
        check_fields(self)
        if self.weight_seed >= 2**64:
            raise ConfigError("weight_seed: must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class EvaluationSection:
    episodes_per_candidate: int = at_least(1, 1)
    final_eval_episodes: int = at_least(1, 100)

    __post_init__ = check_fields


@dataclass(frozen=True)
class RunSection:
    checkpoint_every: int = at_least(1, 50)
    workers: int = at_least(1, 1)

    __post_init__ = check_fields


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    env: SwingUpParams
    arch: Architecture  # its weight_seed is seeds.weight_seed
    optimizer: PipelineConfig  # its seed is seeds.master_seed
    seeds: SeedsSection
    evaluation: EvaluationSection
    run: RunSection

    def __post_init__(self):
        check_fields(self)
        check_arch(self.arch)

    def architecture(self) -> Architecture:
        return self.arch

    def env_params(self) -> SwingUpParams:
        return self.env

    def pipeline(self) -> PipelineConfig:
        return self.optimizer

    @property
    def master_seed(self) -> int:
        return self.seeds.master_seed

    @property
    def episodes_per_candidate(self) -> int:
        return self.evaluation.episodes_per_candidate

    @property
    def workers(self) -> int:
        return self.run.workers


_CARTPOLE_EVAL = {
    "eval_every": 50,
    "eval_episodes": 64,
}

# Shared by several presets; _deep_merge copies it, so they cannot alias.
_GA_CMAES = {
    "optimizer_kind": "ga-cmaes",
    "ga_generations": 100,
    "total_generations": 4000,
    "ga_pop": 512,
    "cmaes_pop": 128,
    **_CARTPOLE_EVAL,
}

PRESETS = {
    "cartpole-recurrent": {
        "arch": {"layer_sizes": [5, 128, 64, 1], "neuron_mode": "recurrent"},
        "optimizer": _GA_CMAES,
    },
    "cartpole-simple": {
        "arch": {"layer_sizes": [5, 128, 64, 1], "neuron_mode": "simple"},
        "optimizer": _GA_CMAES,
    },
    "cartpole-small-ffnn": {
        "arch": {"layer_sizes": [5, 32, 32, 1], "neuron_mode": "tanh"},
        "optimizer": _GA_CMAES,
    },
    "cartpole-same-ffnn": {
        "arch": {"layer_sizes": [5, 128, 64, 1], "neuron_mode": "tanh"},
        "optimizer": {
            "optimizer_kind": "openes",
            "total_generations": 4000,
            "openes_pop": 128,
            **_CARTPOLE_EVAL,
        },
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _section(data, name, cls, every_field=False, **filled):
    """Section ``name`` of ``data`` as a ``cls``; every error names the dotted
    field. ``filled`` fields come from other sections and may not be set here;
    with ``every_field``, as for a file the package wrote, no default is taken."""
    values = data.get(name, {})
    if not isinstance(values, dict):
        raise ConfigError(f"{name}: must be a mapping of fields, got {values!r}")
    clash = set(values) & set(filled)
    if clash:
        raise ConfigError(f"{name}.{min(clash)}: is set in the seeds section")
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{name}: unknown fields {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if every_field or f.default is MISSING}
    missing -= set(values) | set(filled)
    if missing:
        raise ConfigError(f"{name}.{min(missing)}: missing")
    try:
        return cls(**values, **filled)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def from_dict(data: dict, overrides: dict = None) -> ExperimentConfig:
    """Resolve a config mapping: its preset, then ``overrides``, then every
    section built and checked."""
    version = check_value("schema_version", data.get("schema_version", CONFIG_SCHEMA_VERSION), int)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported version {version}")
    preset = data.get("preset")
    if preset is not None:
        if check_value("preset", preset, str) not in PRESETS:
            raise ConfigError(
                f"preset: unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        data = _deep_merge(PRESETS[preset], {"name": preset, **data})
    data = _deep_merge(data, overrides or {})
    known = {f.name for f in fields(ExperimentConfig)} | {"schema_version", "preset"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"config: unknown top-level fields {sorted(unknown)}")
    seeds = _section(data, "seeds", SeedsSection)
    return ExperimentConfig(
        name=data.get("name", "experiment"),
        env=_section(data, "env", SwingUpParams),
        arch=_section(data, "arch", Architecture, weight_seed=seeds.weight_seed),
        optimizer=_section(data, "optimizer", PipelineConfig, seed=seeds.master_seed),
        seeds=seeds,
        evaluation=_section(data, "evaluation", EvaluationSection),
        run=_section(data, "run", RunSection),
    )


def to_dict(cfg: ExperimentConfig) -> dict:
    """Every resolved field, defaults included, as plain values that
    :func:`from_dict` reads back to an equal config."""
    data = to_plain(cfg)
    del data["arch"]["weight_seed"], data["optimizer"]["seed"]  # from seeds
    return {"schema_version": CONFIG_SCHEMA_VERSION, **data}


def from_preset(name: str, overrides: dict = None) -> ExperimentConfig:
    return from_dict({"preset": name}, overrides)
