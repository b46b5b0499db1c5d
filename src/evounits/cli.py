"""Command-line entry point: train, eval, probe, resume."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import zipfile
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile

from .config import (PRESETS, ExperimentConfig, _section, from_dict, from_preset,
                     load_config, save_config, to_dict)
from .errors import CheckpointError, ConfigError, DomainError, EvaluationError, EvoUnitsError
from .genome import initial_genome
from .architecture import count_parameters
from .cartpole import SwingUpParams
from .harness import (
    EVAL_SEED_OFFSET,
    PopulationEvaluator,
    csv_row,
    evaluate,
    probe_layer,
    write_csv,
    write_eval_json,
    write_trace_csv,
)
from .network import load_champion, save_champion, write_atomically
from .optimizers import GenerationRecord, GeneticAlgorithm, PipelineRunner
from .schema import is_int

RUNNER_SCHEMA_VERSION = 5
RUNNER_ARRAYS = ("best", "champion")
RUNNER_FIELDS = ("stage", "generation", "best_fitness", "champion_eval_mean")
META_TYPES = {"config": dict, "out_dir": str, "stage": str, "generation": int, "history": list,
              "best_fitness": float, "champion_eval_mean": float, "optimizer": dict}
FINAL_EVAL_SEED_SUBOFFSET = 100_000

HISTORY_COLUMNS = [f.name for f in fields(GenerationRecord)]
TRAJECTORY_COLUMNS = ["t", "x", "x_dot", "theta", "theta_dot", "action", "reward"]


def _is_a(value, kind):
    """``isinstance``, where a bool is no int."""
    return is_int(value) if kind is int else isinstance(value, kind)


def _is_history_row(row):
    """A saved GenerationRecord: an int generation, a stage and six numbers."""
    return (isinstance(row, list) and len(row) == len(HISTORY_COLUMNS) and is_int(row[0])
            and isinstance(row[1], str)
            and all(is_int(v) or isinstance(v, float) for v in row[2:]))


def _save_runner_checkpoint(path, cfg: ExperimentConfig, out_dir, runner):
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


def _load_runner_checkpoint(path):
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
    if meta.get("schema_version") != RUNNER_SCHEMA_VERSION:
        raise CheckpointError(f"schema_version: {path} has version {meta.get('schema_version')}"
                              f"; only version {RUNNER_SCHEMA_VERSION} resumes")
    for name, kind in META_TYPES.items():
        if not _is_a(meta.get(name), kind):
            raise CheckpointError(f"{name}: missing, or no {kind.__name__}, in {path}")
    bad = [i for i, row in enumerate(meta["history"]) if not _is_history_row(row)]
    if bad:
        raise CheckpointError(f"history: row {bad[0]} is not an int generation, a stage "
                              f"and six numbers, in {path}")
    cfg = from_dict(meta["config"])
    dim = count_parameters(cfg.architecture())

    def array(name, shape):
        saved = members.get(name)
        if not isinstance(saved, np.ndarray) or saved.shape != shape or saved.dtype != float:
            raise CheckpointError(f"{name}: missing, or not float64 of shape {shape} "
                                  f"(dimension {dim}), in {path}")
        return saved

    runner = PipelineRunner(cfg.pipeline(), dim, np.zeros(dim))
    try:
        runner.start_stage(meta["stage"], np.zeros(dim))
    except DomainError as exc:  # it names the stage
        raise CheckpointError(f"{exc} in {path}") from exc
    runner.history = [GenerationRecord(*row) for row in meta["history"]]
    for name in RUNNER_ARRAYS:
        setattr(runner, name, array(name, (dim,)))
    for name in RUNNER_FIELDS:
        setattr(runner, name, meta[name])
    opt, scalars = runner.optimizer, meta["optimizer"]
    for name in opt.STATE:
        value, key = getattr(opt, name), f"optimizer.{name}"
        if name in opt.SYMMETRIC:
            mask = np.triu(np.ones(value.shape, dtype=bool))
            value[mask] = value.T[mask] = array(key, (len(value) * (len(value) + 1) // 2,))
        elif isinstance(value, np.ndarray):
            setattr(opt, name, array(key, value.shape))
        elif not isinstance(value, np.random.Generator):
            if not _is_a(scalars.get(name), type(value)):
                raise CheckpointError(f"{key}: missing, or no {type(value).__name__}, in {path}")
            setattr(opt, name, scalars[name])
        else:
            try:
                value.bit_generator.state = scalars[name]
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"{key}: missing or malformed in {path}: {exc!r}") from exc
    if isinstance(opt, GeneticAlgorithm) and not 1 <= opt.parents <= opt.n_elite:
        raise CheckpointError(f"optimizer.parents: {opt.parents} is not in 1..{opt.n_elite} "
                              f"in {path}")
    return {"config": meta["config"], "out_dir": meta["out_dir"], "runner": runner}


class _GuardedEvaluator:
    """Wraps the fitness function; on failure dumps the candidates for post-mortem."""

    def __init__(self, inner, dump_dir):
        self.inner = inner
        self.dump_dir = Path(dump_dir)

    def __call__(self, genomes, generation):
        try:
            return self.inner(genomes, generation)
        except Exception as exc:
            path = self.dump_dir / f"failed_genomes_gen{generation}.npy"
            np.save(path, np.atleast_2d(genomes))
            raise EvaluationError(
                f"evaluation failed at generation {generation}: {exc}; "
                f"candidates dumped to {path}",
                genome_path=str(path),
            ) from exc


def _run_training(cfg: ExperimentConfig, out_dir: Path, runner=None, quiet=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    save_config(out_dir / "config.yaml", cfg)

    arch = cfg.architecture()
    env_params = cfg.env_params()
    pipe_cfg = cfg.pipeline()
    if runner is None:
        x0 = initial_genome(arch)
        runner = PipelineRunner(pipe_cfg, count_parameters(arch), x0)

    eval_fn = _GuardedEvaluator(
        PopulationEvaluator(
            arch, env_params,
            episodes_per_candidate=cfg.episodes_per_candidate,
            train_seed_base=cfg.master_seed,
            workers=cfg.workers,
        ),
        out_dir,
    )

    def periodic_eval(genome):
        report = evaluate(
            genome, arch, env_params, pipe_cfg.eval_episodes,
            cfg.master_seed + EVAL_SEED_OFFSET,
        )
        return report.mean, report.std

    def on_generation(r, rec):
        history.writerow(csv_row(astuple(rec)))
        history_fh.flush()
        if r.generation % cfg.run.checkpoint_every == 0 or r.finished:
            _save_runner_checkpoint(
                ckpt_dir / f"runner_gen{r.generation}.npz", cfg, out_dir, r
            )
        if not quiet and rec.generation % 10 == 0:
            print(
                f"gen {rec.generation:5d} [{rec.stage}] "
                f"best {rec.best_fitness:8.2f} mean {rec.mean_fitness:8.2f}",
                flush=True,
            )

    # One row per generation as it ends, so a run that fails keeps its history.
    with open(out_dir / "history.csv", "w", newline="") as history_fh:
        history = csv.writer(history_fh)
        history.writerow(HISTORY_COLUMNS)
        history.writerows(csv_row(astuple(rec)) for rec in runner.history)
        history_fh.flush()
        runner.run(eval_fn, periodic_eval, on_generation)

    final_report = evaluate(
        runner.champion, arch, env_params, cfg.evaluation.final_eval_episodes,
        cfg.master_seed + EVAL_SEED_OFFSET + FINAL_EVAL_SEED_SUBOFFSET,
        genome_id=f"{cfg.name}-champion",
    )
    save_champion(
        out_dir / "champion.json", arch, runner.champion,
        eval_info={
            "mean": final_report.mean,
            "std": final_report.std,
            "n_episodes": final_report.n_episodes,
            "periodic_eval_mean": runner.champion_eval_mean,
            "env": to_dict(cfg)["env"],
        },
    )
    write_eval_json(out_dir / "eval.json", final_report)
    if not quiet:
        print(
            f"done: champion mean {final_report.mean:.1f} "
            f"+/- {final_report.std:.1f} over {final_report.n_episodes} episodes"
        )
        print(f"outputs in {out_dir}")
    return 0


def _overrides(args):
    """Config overrides from the command-line flags that were given."""
    overrides = {}
    if getattr(args, "seed_override", None) is not None:
        overrides["seeds"] = {"master_seed": args.seed_override}
    if args.workers is not None:
        overrides["run"] = {"workers": args.workers}
    return overrides


def cmd_train(args):
    if args.config:
        cfg = load_config(args.config, _overrides(args))
    elif args.preset:
        cfg = from_preset(args.preset, _overrides(args))
    else:
        raise ConfigError("train: provide --config or --preset")
    return _run_training(cfg, Path(args.out_dir), quiet=args.quiet)


def cmd_resume(args):
    payload = _load_runner_checkpoint(args.checkpoint)
    cfg = from_dict(payload["config"], _overrides(args))
    runner: PipelineRunner = payload["runner"]
    if args.config:
        saved, given = to_dict(cfg), to_dict(load_config(args.config))
        for section in ("env", "arch", "optimizer", "seeds", "evaluation"):
            for key, value in given[section].items():
                if value != saved[section][key]:
                    raise ConfigError(
                        f"resume: {section}.{key} is {value!r} in --config but "
                        f"{saved[section][key]!r} in the checkpointed run"
                    )
    if runner.finished:
        print("run already finished; nothing to do")
        return 0
    out_dir = Path(args.out_dir) if args.out_dir else Path(payload["out_dir"])
    return _run_training(cfg, out_dir, runner=runner, quiet=args.quiet)


def cmd_eval(args):
    arch, genome, eval_info = load_champion(args.champion)
    if args.config:
        env_params = load_config(args.config).env_params()
    else:  # the env the champion was trained on; defaults where it records none
        try:
            env_params = _section(eval_info or {}, "env", SwingUpParams)
        except ConfigError as exc:
            raise CheckpointError(f"malformed checkpoint {args.champion}: eval.{exc}") from exc
    trajectory = [] if args.dump_trajectory else None
    report = evaluate(
        genome, arch, env_params, args.episodes, args.seed,
        genome_id=Path(args.champion).stem, trajectory=trajectory,
    )
    out = args.out or str(Path(args.champion).with_name("eval.json"))
    write_eval_json(out, report)
    print(
        f"{report.genome_id}: mean {report.mean:.2f} +/- {report.std:.2f} "
        f"over {report.n_episodes} episodes (base seed {report.base_seed})"
    )
    if args.dump_trajectory:
        write_csv(args.dump_trajectory, TRAJECTORY_COLUMNS, trajectory)
        print(f"trajectory written to {args.dump_trajectory}")
    return 0


def cmd_probe(args):
    arch, genome, _ = load_champion(args.champion)
    probe = probe_layer(genome, arch, args.layer)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"traces_layer{args.layer}.csv"
    write_trace_csv(csv_path, probe)
    max_divergence = float(probe.divergence.max())
    divergence = {"layer": args.layer, "max_divergence": max_divergence,
                  "per_neuron": [float(d) for d in probe.divergence]}
    write_atomically(out_dir / f"divergence_layer{args.layer}.json",
                     lambda fh: json.dump(divergence, fh, indent=2), "w")
    print(
        f"layer {args.layer}: {probe.outputs.shape[1]} neurons, "
        f"max ordering divergence {max_divergence:.4f}"
    )
    print(f"traces written to {csv_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evounits",
        description="Evolve per-neuron parameters in random-weight networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the staged training pipeline")
    p_train.add_argument("--config", help="YAML experiment config")
    p_train.add_argument("--preset", choices=sorted(PRESETS),
                         help="built-in experiment preset")
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--workers", type=int, default=None)
    p_train.add_argument("--seed-override", type=int, default=None)
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_resume = sub.add_parser("resume", help="continue a checkpointed run")
    p_resume.add_argument("--checkpoint", required=True)
    p_resume.add_argument("--config", help="verify against the checkpointed config")
    p_resume.add_argument("--out-dir", default=None)
    p_resume.add_argument("--workers", type=int, default=None)
    p_resume.add_argument("--quiet", action="store_true")
    p_resume.set_defaults(func=cmd_resume)

    p_eval = sub.add_parser("eval", help="score a champion checkpoint")
    p_eval.add_argument("--champion", required=True)
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=EVAL_SEED_OFFSET + FINAL_EVAL_SEED_SUBOFFSET)
    p_eval.add_argument("--config", help="env from a config file, not the champion's")
    p_eval.add_argument("--out", default=None, help="eval report JSON path")
    p_eval.add_argument("--dump-trajectory", default=None,
                        help="write the trajectory CSV of episode --seed here")
    p_eval.set_defaults(func=cmd_eval)

    p_probe = sub.add_parser("probe", help="per-neuron activation traces")
    p_probe.add_argument("--champion", required=True)
    p_probe.add_argument("--layer", type=int, required=True)
    p_probe.add_argument("--out-dir", required=True)
    p_probe.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except EvoUnitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
