"""Every file the package reads or writes: its path in a run directory,
its format, its atomic write (all but the streamed ``history.csv``) and its
reader, which checks through the config schema and names the field at fault."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile

from .architecture import Architecture, count_parameters, sample_weights
from .cartpole import SwingUpParams
from .config import ExperimentConfig, _section, from_dict, to_dict
from .errors import CheckpointError, ConfigError, DomainError, EvoUnitsError
from .neural_unit import NeuronMode
from .optimizers import GenerationRecord, GeneticAlgorithm, PipelineRunner
from .schema import Real, at_least, check_fields, check_value, is_finite, to_plain

CHECKPOINT_SCHEMA_VERSION = 1
RUNNER_SCHEMA_VERSION = 5
RUNNER_ARRAYS = ("best", "champion")
RUNNER_FIELDS = ("stage", "generation", "best_fitness", "champion_eval_mean")
HISTORY_COLUMNS = [f.name for f in fields(GenerationRecord)]
TRAJECTORY_COLUMNS = ["t", "x", "x_dot", "theta", "theta_dot", "action", "reward"]


def write_atomically(path, write, mode="wb"):
    """``write(fh)`` to a synced file beside ``path``, renamed over it: a crash
    mid-write leaves the previous file whole; a path that cannot take the file
    is an error naming it. Text keeps the line endings given, as csv needs."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise EvoUnitsError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def csv_row(values):
    """A row of every CSV the package writes: ints and strings as they are,
    every other value as ``repr(float(v))``, which reads back bitwise."""
    return [v if isinstance(v, (int, str)) else repr(float(v)) for v in values]


def write_csv(path, header, rows):
    """``header``, then each of ``rows`` by :func:`csv_row`, written atomically."""
    rows = map(csv_row, [header, *rows])
    write_atomically(path, lambda fh: csv.writer(fh).writerows(rows), "w")


def write_json(path, obj, **kwargs):
    write_atomically(path, lambda fh: json.dump(obj, fh, **kwargs), "w")


def load_config(path, overrides: dict = None) -> ExperimentConfig:
    """The experiment of a YAML config file, resolved by ``config.from_dict``."""
    import yaml  # here, not at the top: only config files need its 1 MB resident
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a mapping at top level")
    return from_dict(data, overrides)


def save_config(path, cfg: ExperimentConfig):
    import yaml
    write_atomically(path, lambda fh: yaml.safe_dump(to_dict(cfg), fh, sort_keys=False), "w")


def make_dir(path: Path):
    """Make directory ``path`` and its parents, or fail naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EvoUnitsError(f"cannot make directory {path}: {exc.strerror}") from exc


def start_run(out_dir: Path, cfg: ExperimentConfig):
    """Make the run directory, write config.yaml; returns a checkpoint's path."""
    make_dir(out_dir / "checkpoints")
    save_config(out_dir / "config.yaml", cfg)
    return lambda generation: out_dir / "checkpoints" / f"runner_gen{generation}.npz"


@contextmanager
def streamed_history(out_dir: Path, records):
    """Open ``history.csv`` with its header and ``records``; yield a function
    that appends one GenerationRecord's row and flushes it, so a run that
    fails keeps every generation that ended."""
    with open(out_dir / "history.csv", "w", newline="") as fh:
        def append(*recs):
            csv.writer(fh).writerows(csv_row(astuple(rec)) for rec in recs)
            fh.flush()

        csv.writer(fh).writerow(HISTORY_COLUMNS)
        append(*records)
        yield append


def save_failed_genomes(out_dir: Path, generation, genomes):
    """The candidates of a failed generation as ``failed_genomes_gen<g>.npy``;
    returns its path."""
    path = out_dir / f"failed_genomes_gen{generation}.npy"
    write_atomically(path, lambda fh: np.save(fh, np.atleast_2d(genomes)))
    return path


def write_eval_json(path, report):
    write_json(path, asdict(report), indent=2)


def write_probe(out_dir: Path, layer, probe):
    """``traces_layer<l>.csv`` (the input column, then each unit's output and,
    for recurrent units, state) and ``divergence_layer<l>.json`` of a
    ``harness.LayerProbe``; returns the CSV's path."""
    make_dir(out_dir)
    planes = [probe.outputs] if probe.states is None else [probe.outputs, probe.states]
    names = ["out", "state"][: len(planes)]
    header = ["input"] + [f"{name}_{i}" for i in range(probe.outputs.shape[1]) for name in names]
    columns = np.stack(planes, axis=-1).reshape(len(probe.inputs), -1)
    csv_path = out_dir / f"traces_layer{layer}.csv"
    write_csv(csv_path, header, np.column_stack([probe.inputs, columns]))
    divergence = {"layer": layer, "max_divergence": float(probe.divergence.max()),
                  "per_neuron": [float(d) for d in probe.divergence]}
    write_json(out_dir / f"divergence_layer{layer}.json", divergence, indent=2)
    return csv_path


def weight_checksum(weights) -> str:
    """SHA-256 over the raw float64 bytes of all matrices, in layer order."""
    digest = hashlib.sha256()
    for w in weights:
        digest.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
    return digest.hexdigest()


def save_champion(path, arch: Architecture, genome, eval_info=None):
    """Write a champion checkpoint as JSON; floats round-trip bit-exactly."""
    frozen = arch.neuron_mode is not NeuronMode.PLAIN_TANH
    write_json(path, {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": "champion",
        "arch": to_plain(arch),
        "genome": [float(v) for v in np.asarray(genome, dtype=np.float64)],
        "weight_checksum": weight_checksum(sample_weights(arch)) if frozen else None,
        "eval": eval_info,
    })


def load_champion(path):
    """Read a champion checkpoint; verifies the frozen-weight checksum.

    Returns (arch, genome, eval_info). Each error names the field at fault
    and the path.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot decode checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"cannot decode checkpoint {path}: no JSON object")
    try:
        version = check_value("schema_version", payload.get("schema_version"), int)
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ConfigError(f"schema_version: {version}; only version "
                              f"{CHECKPOINT_SCHEMA_VERSION} loads")
        if payload.get("kind") != "champion":
            raise ConfigError(f"kind: {payload.get('kind')!r} is no champion")
        arch = payload.get("arch")
        if isinstance(arch, dict) and "output_kinds" in arch:
            # Older files list an output nonlinearity per output; tanh is the only one.
            arch = dict(arch)
            kinds = arch.pop("output_kinds")
            if not isinstance(kinds, list) or any(k != "tanh" for k in kinds):
                raise ConfigError(f"arch.output_kinds: only tanh outputs exist, got {kinds!r}")
        arch = _section({"arch": arch}, "arch", Architecture, every_field=True)
        genome = payload.get("genome")
        if not isinstance(genome, list) or not all(map(is_finite, genome)):
            raise ConfigError("genome: must be a list of finite numbers")
        if len(genome) != count_parameters(arch):
            raise ConfigError(f"genome: has {len(genome)} values, but the architecture "
                              f"has {count_parameters(arch)} parameters")
        if "weight_checksum" not in payload:
            raise ConfigError("weight_checksum: missing")
        recorded = payload["weight_checksum"]
        frozen = arch.neuron_mode is not NeuronMode.PLAIN_TANH
        if not isinstance(recorded, str if frozen else type(None)):
            must = "a string where weights are frozen" if frozen else "null for plain tanh"
            raise ConfigError(f"weight_checksum: must be {must}, got {recorded!r}")
        if frozen and recorded != weight_checksum(sample_weights(arch)):
            raise ConfigError("weight_checksum: mismatch: weights were mutated or the "
                              "generator changed since this checkpoint was written")
        eval_info = payload.get("eval")
        if not isinstance(eval_info, (dict, type(None))):
            raise ConfigError(f"eval: must be a mapping, got {eval_info!r}")
    except ConfigError as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return arch, np.array(genome, dtype=np.float64), eval_info


def champion_env(path, eval_info) -> SwingUpParams:
    """The env under ``eval.env`` of the champion file ``path``, or the defaults."""
    try:
        return _section(eval_info or {}, "env", SwingUpParams)
    except ConfigError as exc:
        raise CheckpointError(f"malformed checkpoint {path}: eval.{exc}") from exc


@dataclass(frozen=True)
class RunMeta:
    """The JSON member ``meta`` of a run checkpoint, but its schema_version."""

    config: dict
    out_dir: str
    stage: str
    generation: int = at_least(0)
    best_fitness: Real
    champion_eval_mean: Real
    history: list
    optimizer: dict

    __post_init__ = check_fields


def save_runner_checkpoint(path, cfg: ExperimentConfig, out_dir, runner):
    """Write the run as one ``.npz``: its arrays as members, the rest as the
    UTF-8 JSON member ``meta``; a symmetric matrix keeps its upper triangle."""
    opt, scalars = runner.optimizer, {}
    arrays = {name: getattr(runner, name) for name in RUNNER_ARRAYS}
    for name in opt.STATE:
        value = getattr(opt, name)
        if name in opt.SYMMETRIC:
            if not np.array_equal(value, value.T):
                raise CheckpointError(f"optimizer.{name}: not exactly symmetric")
            value = value[np.triu(np.ones(value.shape, dtype=bool))]
        if isinstance(value, np.ndarray):
            arrays[f"optimizer.{name}"] = value
        else:
            is_rng = isinstance(value, np.random.Generator)
            scalars[name] = value.bit_generator.state if is_rng else value
    meta = {"schema_version": RUNNER_SCHEMA_VERSION, "config": to_dict(cfg),
            "out_dir": str(out_dir), **{name: getattr(runner, name) for name in RUNNER_FIELDS},
            "history": [astuple(rec) for rec in runner.history], "optimizer": scalars}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    write_atomically(path, lambda fh: np.savez(fh, **arrays))


def load_runner_checkpoint(path):
    """The config mapping, ``out_dir`` and runner of a run checkpoint: the
    runner is rebuilt from the config and its saved state written over it.
    Nothing is unpickled, and each error names the member or field at fault."""
    try:
        with open(path, "rb") as fh, NpzFile(fh, allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
    except OSError as exc:
        raise CheckpointError(f"cannot read run checkpoint {path}: {exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:  # a pickle or .npy is no zip archive
        raise CheckpointError(f"schema_version: {path} is not a version-{RUNNER_SCHEMA_VERSION} "
                              f"run checkpoint (an .npz); pickled versions 1-3 do not resume: "
                              f"{exc}") from exc
    try:
        meta = json.loads(bytes(members.pop("meta")))
    except (KeyError, ValueError):
        meta = None
    if not isinstance(meta, dict):
        raise CheckpointError(f"meta: missing, or no UTF-8 JSON object, in {path}")
    try:
        version = check_value("schema_version", meta.pop("schema_version", None), int)
        if version != RUNNER_SCHEMA_VERSION:
            raise ConfigError(f"schema_version: {version}; only version "
                              f"{RUNNER_SCHEMA_VERSION} resumes")
        meta = _section({"meta": meta}, "meta", RunMeta)
        history = _history(meta.history)
    except ConfigError as exc:
        raise CheckpointError(f"{exc}, in {path}") from exc
    cfg = from_dict(meta.config)  # a ConfigError: the run's config no longer validates
    dim = count_parameters(cfg.architecture())

    def array(name, shape):
        saved = members.get(name)
        if not isinstance(saved, np.ndarray) or saved.shape != shape or saved.dtype != float:
            raise ConfigError(f"{name}: missing, or not float64 of shape {shape} "
                              f"(dimension {dim})")
        return saved

    runner = PipelineRunner(cfg.pipeline(), dim, np.zeros(dim))
    runner.history = history
    try:  # the saved state, written over the runner of the config
        runner.start_stage(meta.stage, np.zeros(dim))
        for name in RUNNER_ARRAYS:
            setattr(runner, name, array(name, (dim,)))
        for name in RUNNER_FIELDS:
            setattr(runner, name, getattr(meta, name))
        opt, scalars = runner.optimizer, meta.optimizer
        for name in opt.STATE:
            value, key = getattr(opt, name), f"optimizer.{name}"
            if name in opt.SYMMETRIC:
                mask = np.triu(np.ones(value.shape, dtype=bool))
                value[mask] = value.T[mask] = array(key, (len(value) * (len(value) + 1) // 2,))
            elif isinstance(value, np.ndarray):
                setattr(opt, name, array(key, value.shape))
            elif not isinstance(value, np.random.Generator):
                setattr(opt, name, check_value(key, scalars.get(name), type(value)))
            else:
                try:
                    value.bit_generator.state = scalars[name]
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{key}: missing or malformed: {exc!r}") from exc
        if isinstance(opt, GeneticAlgorithm) and not 1 <= opt.parents <= opt.n_elite:
            raise ConfigError(f"optimizer.parents: {opt.parents} is not in 1..{opt.n_elite}")
    except (ConfigError, DomainError) as exc:  # each names its field
        raise CheckpointError(f"{exc}, in {path}") from exc
    return {"config": meta.config, "out_dir": meta.out_dir, "runner": runner}


def _history(rows):
    """The GenerationRecords of saved history rows, each field checked."""
    records = []
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, list) or len(row) != len(HISTORY_COLUMNS):
                raise ConfigError(f"must be a list of {len(HISTORY_COLUMNS)} values")
            records.append(GenerationRecord(*row))
            check_fields(records[-1])
        except ConfigError as exc:
            raise ConfigError(f"meta.history: row {i}: {exc}") from exc
    return records
