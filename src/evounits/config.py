"""Declarative experiment configuration: presets, YAML round-trip, validation."""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field

import yaml

from .architecture import Architecture
from .cartpole import SwingUpParams, check_arch
from .errors import ConfigError
from .neural_unit import NeuronMode
from .optimizers import PipelineConfig

CONFIG_SCHEMA_VERSION = 1

# Fields each free-form section may set; arch, env and optimizer are checked
# against the objects they build.
SECTION_FIELDS = {
    "seeds": {"master_seed", "weight_seed"},
    "evaluation": {"episodes_per_candidate", "final_eval_episodes"},
    "run": {"checkpoint_every", "workers"},
}


@dataclass
class ExperimentConfig:
    name: str
    env: dict = field(default_factory=dict)  # SwingUpParams overrides
    arch: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    evaluation: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    def env_params(self) -> SwingUpParams:
        try:
            return SwingUpParams(**self.env)
        except TypeError as exc:
            raise ConfigError(f"env: {exc}") from exc

    def architecture(self) -> Architecture:
        d = dict(self.arch)
        try:
            mode = NeuronMode(d.pop("neuron_mode"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"arch.neuron_mode: {exc}") from exc
        if "layer_sizes" not in d:
            raise ConfigError("arch.layer_sizes: missing")
        layer_sizes = tuple(d.pop("layer_sizes"))
        weight_std = d.pop("weight_std", 0.5)
        if d:
            raise ConfigError(f"arch: unknown fields {sorted(d)}")
        return Architecture(
            layer_sizes=layer_sizes,
            neuron_mode=mode,
            weight_seed=self.seeds.get("weight_seed", 0),
            weight_std=weight_std,
        )

    def pipeline(self) -> PipelineConfig:
        try:
            return PipelineConfig(seed=self.master_seed, **self.optimizer)
        except TypeError as exc:
            raise ConfigError(f"optimizer: {exc}") from exc

    def _int(self, section, name, default):
        value = getattr(self, section).get(name, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{name}: must be an integer, got {value!r}")
        return value

    @property
    def master_seed(self) -> int:
        return self._int("seeds", "master_seed", 0)

    @property
    def episodes_per_candidate(self) -> int:
        return self._int("evaluation", "episodes_per_candidate", 1)

    @property
    def final_eval_episodes(self) -> int:
        return self._int("evaluation", "final_eval_episodes", 100)

    @property
    def checkpoint_every(self) -> int:
        return self._int("run", "checkpoint_every", 50)

    @property
    def workers(self) -> int:
        return self._int("run", "workers", 1)

    def validate(self):
        """Materialize every derived object so bad fields fail up front."""
        for section, known in SECTION_FIELDS.items():
            unknown = set(getattr(self, section)) - known
            if unknown:
                raise ConfigError(f"{section}: unknown fields {sorted(unknown)}")
        if self.master_seed < 0:
            raise ConfigError("seeds.master_seed: must be >= 0")
        self.env_params()
        check_arch(self.architecture())
        self.pipeline()
        if self.episodes_per_candidate < 1:
            raise ConfigError("evaluation.episodes_per_candidate: must be >= 1")
        if self.final_eval_episodes < 1:
            raise ConfigError("evaluation.final_eval_episodes: must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigError("run.checkpoint_every: must be >= 1")
        if self.workers < 1:
            raise ConfigError("run.workers: must be >= 1")
        return self


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


def from_preset(name: str, overrides: dict = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"preset: unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    data = _deep_merge(PRESETS[name], overrides or {})
    data.setdefault("name", name)
    return _from_dict(data).validate()


def _from_dict(data: dict) -> ExperimentConfig:
    known = {"name", "env", "arch", "optimizer", "seeds", "evaluation", "run"}
    unknown = set(data) - known - {"schema_version", "preset"}
    if unknown:
        raise ConfigError(f"config: unknown top-level fields {sorted(unknown)}")
    return ExperimentConfig(
        name=data.get("name", "experiment"),
        env=dict(data.get("env", {})),
        arch=dict(data.get("arch", {})),
        optimizer=dict(data.get("optimizer", {})),
        seeds=dict(data.get("seeds", {})),
        evaluation=dict(data.get("evaluation", {})),
        run=dict(data.get("run", {})),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a mapping at top level")
    version = data.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported version {version}")
    preset = data.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {preset!r}")
        data = _deep_merge(PRESETS[preset], data)
        data.setdefault("name", preset)
    return _from_dict(data).validate()


def save_config(path, cfg: ExperimentConfig):
    data = {"schema_version": CONFIG_SCHEMA_VERSION, **asdict(cfg)}
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
