"""Command-line entry point: train, eval, probe, resume."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import PRESETS, ExperimentConfig, from_dict, from_preset, to_dict
from .errors import ConfigError, EvaluationError, EvoUnitsError
from .genome import initial_genome
from .architecture import count_parameters
from .harness import EVAL_SEED_OFFSET, PopulationEvaluator, evaluate, probe_layer
from .optimizers import PipelineRunner
from . import rundir
from .rundir import save_runner_checkpoint as _save_runner_checkpoint  # perfbench/ names it

FINAL_EVAL_SEED_SUBOFFSET = 100_000


def _run_training(cfg: ExperimentConfig, out_dir: Path, runner=None, quiet=False):
    checkpoint_path = rundir.start_run(out_dir, cfg)

    arch = cfg.architecture()
    env_params = cfg.env_params()
    pipe_cfg = cfg.pipeline()
    if runner is None:
        x0 = initial_genome(arch)
        runner = PipelineRunner(pipe_cfg, count_parameters(arch), x0)

    evaluator = PopulationEvaluator(arch, env_params,
                                    episodes_per_candidate=cfg.episodes_per_candidate,
                                    train_seed_base=cfg.master_seed, workers=cfg.workers)

    def eval_fn(genomes, generation):
        try:
            return evaluator(genomes, generation)
        except Exception as exc:  # the candidates are dumped for post-mortem
            path = rundir.save_failed_genomes(out_dir, generation, genomes)
            raise EvaluationError(f"evaluation failed at generation {generation}: {exc}; "
                                  f"candidates dumped to {path}") from exc

    def periodic_eval(genome):
        report = evaluate(
            genome, arch, env_params, pipe_cfg.eval_episodes,
            cfg.master_seed + EVAL_SEED_OFFSET,
        )
        return report.mean, report.std

    def on_generation(r, rec):
        append_history(rec)
        if r.generation % cfg.run.checkpoint_every == 0 or r.finished:
            _save_runner_checkpoint(checkpoint_path(r.generation), cfg, out_dir, r)
        if not quiet and rec.generation % 10 == 0:
            print(f"gen {rec.generation:5d} [{rec.stage}] best {rec.best_fitness:8.2f} "
                  f"mean {rec.mean_fitness:8.2f}", flush=True)

    with rundir.streamed_history(out_dir, runner.history) as append_history:
        runner.run(eval_fn, periodic_eval, on_generation)

    final_report = evaluate(
        runner.champion, arch, env_params, cfg.evaluation.final_eval_episodes,
        cfg.master_seed + EVAL_SEED_OFFSET + FINAL_EVAL_SEED_SUBOFFSET,
        genome_id=f"{cfg.name}-champion",
    )
    eval_info = {"mean": final_report.mean, "std": final_report.std,
                 "n_episodes": final_report.n_episodes,
                 "periodic_eval_mean": runner.champion_eval_mean, "env": to_dict(cfg)["env"]}
    rundir.save_champion(out_dir / "champion.json", arch, runner.champion, eval_info)
    rundir.write_eval_json(out_dir / "eval.json", final_report)
    if not quiet:
        print(f"done: champion mean {final_report.mean:.1f} +/- {final_report.std:.1f} "
              f"over {final_report.n_episodes} episodes")
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
        cfg = rundir.load_config(args.config, _overrides(args))
    elif args.preset:
        cfg = from_preset(args.preset, _overrides(args))
    else:
        raise ConfigError("train: provide --config or --preset")
    return _run_training(cfg, Path(args.out_dir), quiet=args.quiet)


def cmd_resume(args):
    payload = rundir.load_runner_checkpoint(args.checkpoint)
    cfg = from_dict(payload["config"], _overrides(args))
    runner: PipelineRunner = payload["runner"]
    if args.config:
        saved, given = to_dict(cfg), to_dict(rundir.load_config(args.config))
        for section in ("env", "arch", "optimizer", "seeds", "evaluation"):
            for key, value in given[section].items():
                if value != saved[section][key]:
                    raise ConfigError(f"resume: {section}.{key} is {value!r} in --config but "
                                      f"{saved[section][key]!r} in the checkpointed run")
    if runner.finished:
        print("run already finished; nothing to do")
        return 0
    out_dir = Path(args.out_dir) if args.out_dir else Path(payload["out_dir"])
    return _run_training(cfg, out_dir, runner=runner, quiet=args.quiet)


def cmd_eval(args):
    arch, genome, eval_info = rundir.load_champion(args.champion)
    if args.config:
        env_params = rundir.load_config(args.config).env_params()
    else:
        env_params = rundir.champion_env(args.champion, eval_info)
    trajectory = [] if args.dump_trajectory else None
    report = evaluate(
        genome, arch, env_params, args.episodes, args.seed,
        genome_id=Path(args.champion).stem, trajectory=trajectory,
    )
    if args.dump_trajectory:  # first: a path that fails leaves --out as it was
        rundir.write_csv(args.dump_trajectory, rundir.TRAJECTORY_COLUMNS, trajectory)
        print(f"trajectory written to {args.dump_trajectory}")
    out = args.out or str(Path(args.champion).with_name("eval.json"))
    rundir.write_eval_json(out, report)
    print(f"{report.genome_id}: mean {report.mean:.2f} +/- {report.std:.2f} "
          f"over {report.n_episodes} episodes (base seed {report.base_seed})")
    return 0


def cmd_probe(args):
    arch, genome, _ = rundir.load_champion(args.champion)
    probe = probe_layer(genome, arch, args.layer)
    csv_path = rundir.write_probe(Path(args.out_dir), args.layer, probe)
    print(f"layer {args.layer}: {probe.outputs.shape[1]} neurons, "
          f"max ordering divergence {probe.divergence.max():.4f}")
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
