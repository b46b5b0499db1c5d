from dataclasses import FrozenInstanceError, asdict

import pytest
import yaml

from evounits.architecture import Architecture
from evounits.cli import main
from evounits.config import PRESETS, from_dict, from_preset, to_dict
from evounits.errors import ConfigError
from evounits.neural_unit import NeuronMode
from evounits.rundir import load_config, save_config

GA_CMAES = {
    "total_generations": 4000, "ga_generations": 100, "ga_pop": 512,
    "ga_elite_frac": 0.125, "ga_mutation_std": 1.0, "cmaes_pop": 128,
    "cmaes_sigma0": 0.5, "optimizer_kind": "ga-cmaes", "openes_pop": 128,
    "openes_sigma": 0.1, "openes_lr": 0.01, "eval_every": 50, "eval_episodes": 64,
    "seed": 0,
}
OPENES = {**GA_CMAES, "optimizer_kind": "openes"}

PINNED = {
    "cartpole-recurrent": ((5, 128, 64, 1), NeuronMode.RECURRENT, GA_CMAES),
    "cartpole-simple": ((5, 128, 64, 1), NeuronMode.SIMPLE, GA_CMAES),
    "cartpole-small-ffnn": ((5, 32, 32, 1), NeuronMode.PLAIN_TANH, GA_CMAES),
    "cartpole-same-ffnn": ((5, 128, 64, 1), NeuronMode.PLAIN_TANH, OPENES),
}


def test_every_preset_resolves_to_its_pinned_values():
    assert sorted(PINNED) == sorted(PRESETS)
    for name, (sizes, mode, pipeline) in PINNED.items():
        cfg = from_preset(name)
        assert cfg.architecture() == Architecture(sizes, mode, weight_seed=0, weight_std=0.5)
        assert asdict(cfg.pipeline()) == pipeline
        # Presets share an optimizer block, and no config can edit it.
        with pytest.raises(FrozenInstanceError):
            cfg.optimizer.ga_pop = 3


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_round_trips_through_its_mapping(name):
    # The mapping config.yaml and run checkpoints record: every resolved
    # field once, seeds in their own section, plain YAML values only.
    cfg = from_preset(name, {"seeds": {"master_seed": 4, "weight_seed": 9}})
    data = yaml.safe_load(yaml.safe_dump(to_dict(cfg)))
    assert "seed" not in data["optimizer"] and "weight_seed" not in data["arch"]
    assert from_dict(data) == cfg
    assert cfg.pipeline().seed == 4 and cfg.architecture().weight_seed == 9


@pytest.mark.parametrize("sizes", [[4, 8, 1], [5, 8, 2], [4, 8, 3]])
def test_arch_must_fit_the_task(sizes):
    with pytest.raises(ConfigError, match="arch.layer_sizes"):
        from_preset("cartpole-recurrent", {"arch": {"layer_sizes": sizes}})


# A config that trains in well under a second, were it taken.
TINY = {
    "preset": "cartpole-recurrent", "env": {"max_steps": 10},
    "arch": {"layer_sizes": [5, 4, 1]}, "evaluation": {"final_eval_episodes": 1},
    "optimizer": {"total_generations": 1, "ga_generations": 1, "ga_pop": 4,
                  "eval_every": 1, "eval_episodes": 1},
}


@pytest.mark.parametrize("field, value, message", [
    ("preset", ["cartpole-recurrent"], "preset: must be a str, got ['cartpole-recurrent']"),
    ("schema_version", True, "schema_version: must be an integer, got True"),
    ("schema_version", 1.0, "schema_version: must be an integer, got 1.0"),
], ids=["preset-list", "version-true", "version-float"])
def test_top_level_field_named_before_compute(tmp_path, capsys, field, value, message):
    # The list crashed with a TypeError; true and 1.0 were read as version 1.
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({**TINY, field: value}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out-dir", str(out), "--quiet"]) == 1
    assert not out.exists()
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("section, field", [
    ("seeds", "master_sed"), ("evaluation", "final_eval_episode"), ("run", "worker"),
])
def test_unknown_section_field_named(section, field):
    with pytest.raises(ConfigError, match=rf"^{section}: unknown fields \['{field}'\]"):
        from_preset("cartpole-recurrent", {section: {field: 7}})


def test_missing_layer_sizes_named():
    # No preset fills the field in.
    with pytest.raises(ConfigError, match="^arch.layer_sizes: missing"):
        from_dict({"arch": {"neuron_mode": "recurrent"}})


@pytest.mark.parametrize("sizes, seed, message", [
    ((5,), 0, "^layer_sizes: need at least input and output layers"),
    ((5, 0, 1), 0, "^layer_sizes: every layer size must be >= 1"),
    ((5, 4, 1), 2**64, "^weight_seed: must fit in an unsigned 64-bit integer"),
], ids=["one-layer", "zero-size", "seed-2**64"])
def test_bad_architecture_named(sizes, seed, message):
    with pytest.raises(ConfigError, match=message):
        Architecture(sizes, NeuronMode.RECURRENT, weight_seed=seed)


def test_negative_master_seed_named():
    with pytest.raises(ConfigError, match="seeds.master_seed"):
        from_preset("cartpole-recurrent", {"seeds": {"master_seed": -1}})


@pytest.mark.parametrize("lr", [-5.0, 0.0])
def test_nonpositive_openes_lr_named(lr):
    # OpenES would descend the fitness at a negative rate.
    with pytest.raises(ConfigError, match="^optimizer.openes_lr: "):
        from_preset("cartpole-same-ffnn", {"optimizer": {"openes_lr": lr}})


def test_crash_mid_write_keeps_previous_config(tmp_path, monkeypatch):
    path = tmp_path / "config.yaml"
    save_config(path, from_preset("cartpole-recurrent"))

    def crashing_dump(data, fh, **kwargs):
        fh.write("preset: cartpole-rec")
        raise OSError("disk full")

    monkeypatch.setattr(yaml, "safe_dump", crashing_dump)
    with pytest.raises(OSError, match="disk full"):
        save_config(path, from_preset("cartpole-simple"))
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]
    assert load_config(path) == from_preset("cartpole-recurrent")
