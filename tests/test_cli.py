import csv
import json
import pickle
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest
import yaml

import rollout_oracle as oracle
from evounits.architecture import Architecture
from evounits.cartpole import SwingUpParams
from evounits import cli, harness, rundir
from evounits.cli import main
from evounits.config import from_dict, from_preset
from evounits.genome import initial_genome
from evounits.harness import evaluate
from evounits.neural_unit import NeuronMode
from evounits.rundir import load_champion, load_config, save_champion

REFERENCE_CHAMPION = Path(__file__).resolve().parent.parent / "artifacts" / \
    "reference_champion.json"

BASE_CONFIG = {
    "preset": "cartpole-recurrent",
    "name": "tiny",
    "env": {"max_steps": 100},
    "arch": {"layer_sizes": [5, 6, 4, 1], "neuron_mode": "recurrent"},
    "optimizer": {
        "total_generations": 4,
        "ga_generations": 2,
        "ga_pop": 8,
        "cmaes_pop": 4,
        "eval_every": 2,
        "eval_episodes": 2,
    },
    "seeds": {"weight_seed": 3, "master_seed": 3},
    "evaluation": {"final_eval_episodes": 3},
    "run": {"checkpoint_every": 1},
}


def write_config(path, **overrides):
    data = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            data.setdefault(section, {})[field] = value
        else:
            data[section] = value
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return path


def history_without_wallclock(path):
    lines = path.read_text().strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


@pytest.fixture()
def trained_run(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
    return out


class TestTrain:
    def test_smoke_outputs(self, trained_run):
        history = (trained_run / "history.csv").read_text().strip().splitlines()
        assert len(history) == 1 + 4  # header + one row per generation
        assert (trained_run / "champion.json").exists()
        assert (trained_run / "eval.json").exists()
        assert (trained_run / "config.yaml").exists()
        assert (trained_run / "checkpoints" / "runner_gen1.npz").exists()

    def test_config_yaml_lists_every_resolved_field(self, tmp_path, trained_run):
        saved = yaml.safe_load((trained_run / "config.yaml").read_text())
        assert saved["env"]["dt"] == 0.01 and saved["run"]["workers"] == 1
        assert load_config(trained_run / "config.yaml") == \
            load_config(write_config(tmp_path / "cfg.yaml"))

    def test_rerun_is_deterministic(self, tmp_path, trained_run):
        cfg = write_config(tmp_path / "cfg2.yaml")
        out2 = tmp_path / "run2"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out2),
                     "--quiet"]) == 0
        assert history_without_wallclock(trained_run / "history.csv") == \
            history_without_wallclock(out2 / "history.csv")
        champ1 = json.loads((trained_run / "champion.json").read_text())
        champ2 = json.loads((out2 / "champion.json").read_text())
        assert champ1["genome"] == champ2["genome"]

    def test_outputs_independent_of_workers(self, tmp_path, trained_run):
        # Two workers fork a pool in every generation, in the CMA-ES stage
        # after C^-1/2's product is done; the run's outputs are those of one.
        cfg = write_config(tmp_path / "cfg2.yaml")
        out2 = tmp_path / "run2"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out2), "--quiet",
                     "--workers", "2"]) == 0
        for name in ("champion.json", "eval.json"):
            assert (out2 / name).read_bytes() == (trained_run / name).read_bytes(), name
        assert history_without_wallclock(out2 / "history.csv") == \
            history_without_wallclock(trained_run / "history.csv")

    def test_history_streams_until_a_failed_generation(self, tmp_path, monkeypatch):
        from evounits import cli

        score = cli.PopulationEvaluator.__call__

        def fails_at_generation_3(self, genomes, generation):
            if generation == 3:
                raise FloatingPointError("injected failure")
            return score(self, genomes, generation)

        monkeypatch.setattr(cli.PopulationEvaluator, "__call__", fails_at_generation_3)
        cfg = write_config(tmp_path / "cfg.yaml")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 2
        assert np.load(out / "failed_genomes_gen3.npy").shape == (4, 96)
        history = (out / "history.csv").read_text().strip().splitlines()
        assert len(history) == 1 + 3
        assert [row.split(",")[0] for row in history[1:]] == ["0", "1", "2"]

    def test_invalid_schedule_rejected_before_compute(self, tmp_path):
        cfg = write_config(tmp_path / "bad.yaml", **{
            "optimizer.ga_generations": 10, "optimizer.total_generations": 4,
        })
        out = tmp_path / "never"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("field", ["ga_pop", "cmaes_pop", "openes_pop",
                                       "eval_episodes"])
    def test_bad_optimizer_size_rejected_before_compute(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path / "bad.yaml", **{f"optimizer.{field}": 0})
        out = tmp_path / "never"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert f"{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, kind", [
        ("ga_mutation_std", -1, "ga-cmaes"), ("ga_elite_frac", 0.99, "ga-cmaes"),
        ("cmaes_sigma0", 0, "ga-cmaes"), ("openes_sigma", 0, "openes"),
        ("openes_pop", 3, "openes"),
    ])
    def test_bad_optimizer_value_rejected_before_compute(self, tmp_path, capsys,
                                                         field, value, kind):
        cfg = write_config(tmp_path / "bad.yaml", **{
            f"optimizer.{field}": value, "optimizer.optimizer_kind": kind,
        })
        out = tmp_path / "never"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert f"{field}: " in capsys.readouterr().err

    def test_arch_not_fitting_task_rejected_before_compute(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.yaml", **{"arch.layer_sizes": [5, 6, 4, 2]})
        out = tmp_path / "never"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert "arch.layer_sizes" in capsys.readouterr().err

    # Every unit squashes with tanh, so an output_kinds entry is unknown too.
    @pytest.mark.parametrize("field", ["bogus_field", "output_kinds"])
    def test_unknown_field_named_in_error(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path / "bad.yaml", **{f"arch.{field}": ["tanh"]})
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("section, field", [
        ("seeds", "master_sed"), ("evaluation", "final_eval_episode"), ("run", "worker"),
    ])
    def test_unknown_section_field_named_in_error(self, tmp_path, capsys, section, field):
        cfg = write_config(tmp_path / "bad.yaml", **{f"{section}.{field}": 7})
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert f"{section}: unknown fields ['{field}']" in capsys.readouterr().err

    # Integer fields take a YAML int and nothing that converts to one.
    @pytest.mark.parametrize("field, value", [
        ("seeds.master_seed", "abc"), ("evaluation.final_eval_episodes", 2.5),
        ("run.workers", True), ("run.checkpoint_every", "7"),
        ("seeds.weight_seed", 1.7), ("env.max_steps", 20.5),
        ("optimizer.ga_pop", 100.5), ("optimizer.ga_pop", "512"),
        ("optimizer.eval_every", True),
    ])
    def test_non_integer_field_named_before_compute(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "bad.yaml", **{field: value})
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert f"{field}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("arch.layer_sizes", [5, 12.7, 1], "arch.layer_sizes: must be a list of integers"),
        ("arch.layer_sizes", [5, True, 1], "arch.layer_sizes: must be a list of integers"),
        ("arch.weight_std", "0.5", "arch.weight_std: must be a finite number"),
        ("env.dt", float("nan"), "env.dt: must be a finite number"),
        ("optimizer.seed", 3, "optimizer.seed: "),
        ("seeds", None, "seeds: must be a mapping"),
        ("schema_version", 2, "schema_version: unsupported version 2"),
        ("preset", "cartpole-nope", "preset: unknown preset 'cartpole-nope'"),
        ("bogus", 1, "config: unknown top-level fields ['bogus']"),
        ("seeds.weight_seed", 2**64, "seeds.weight_seed: must fit in an unsigned 64-bit"),
        ("optimizer.optimizer_kind", "ga", "optimizer.optimizer_kind: unknown kind 'ga'"),
    ])
    def test_bad_value_named_before_compute(self, tmp_path, capsys, field, value,
                                            message):
        cfg = write_config(tmp_path / "bad.yaml", **{field: value})
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "- 5\n- 1\n"], ids=["missing", "list"])
    def test_unreadable_config_named_before_compute(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.yaml"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert f"config file {cfg}: " in capsys.readouterr().err

    def test_config_or_preset_required(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["train", "--out-dir", str(out), "--quiet"]) == 1
        assert not out.exists()
        assert "provide --config or --preset" in capsys.readouterr().err

    def test_preset_with_workers_override(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "_run_training",
                            lambda cfg, out_dir, quiet: runs.append(cfg) or 0)
        assert main(["train", "--preset", "cartpole-simple", "--workers", "2",
                     "--out-dir", str(tmp_path / "x")]) == 0
        [cfg] = runs
        assert cfg.name == "cartpole-simple" and cfg.run.workers == 2
        assert cfg == from_preset("cartpole-simple", {"run": {"workers": 2}})

    def test_negative_seed_override_rejected_before_compute(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml")
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--quiet",
                     "--seed-override", "-1"]) == 1
        assert not out.exists()
        assert "seeds.master_seed" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["train", "--config", str(cfg), "--out-dir", str(out_a), "--quiet",
              "--seed-override", "99"])
        main(["train", "--config", str(cfg), "--out-dir", str(out_b), "--quiet"])
        assert history_without_wallclock(out_a / "history.csv") != \
            history_without_wallclock(out_b / "history.csv")


class TestEval:
    def test_eval_champion(self, trained_run, tmp_path):
        out = tmp_path / "report.json"
        code = main(["eval", "--champion", str(trained_run / "champion.json"),
                     "--episodes", "3", "--seed", "5", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n_episodes"] == 3 and len(data["scores"]) == 3

    def test_single_episode(self, trained_run, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--champion", str(trained_run / "champion.json"),
                     "--episodes", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["std"] == 0.0

    def test_reference_champion_reproduces_recorded_score(self, tmp_path):
        # The shipped champion re-scored on fresh seeds must land within one
        # recorded standard deviation of its recorded mean.
        champion = REFERENCE_CHAMPION
        recorded = json.loads(champion.read_text())["eval"]
        out = tmp_path / "ref.json"
        code = main(["eval", "--champion", str(champion),
                     "--episodes", "100", "--seed", "424242",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["mean"] - recorded["mean"]) <= recorded["std"]

    def test_defaults_reproduce_the_runs_final_eval(self, tmp_path):
        # Master seed 0's final eval runs the default eval seeds, on the env
        # the champion records (max_steps 100 here, not the default 1000).
        cfg = write_config(tmp_path / "cfg.yaml", **{"seeds.master_seed": 0})
        run, out = tmp_path / "run", tmp_path / "r.json"
        assert main(["train", "--config", str(cfg), "--out-dir", str(run), "--quiet"]) == 0
        assert json.loads((run / "champion.json").read_text())["eval"]["env"]["max_steps"] == 100
        assert main(["eval", "--champion", str(run / "champion.json"), "--episodes", "3",
                     "--out", str(out)]) == 0
        recorded = json.loads((run / "eval.json").read_text())
        assert json.loads(out.read_text())["scores"] == recorded["scores"]

    def test_champion_without_env_runs_default_env(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--champion", str(REFERENCE_CHAMPION), "--episodes", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        arch, genome, eval_info = load_champion(REFERENCE_CHAMPION)
        assert "env" not in eval_info
        expected = evaluate(genome, arch, SwingUpParams(), 2, 5)
        assert json.loads(out.read_text())["scores"] == expected.scores

    def test_config_env_replaces_recorded_env(self, trained_run, tmp_path):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "env.yaml", env={"max_steps": 30})
        champion = trained_run / "champion.json"
        assert main(["eval", "--champion", str(champion), "--episodes", "2",
                     "--seed", "5", "--config", str(cfg), "--out", str(out)]) == 0
        arch, genome, _ = load_champion(champion)
        expected = evaluate(genome, arch, SwingUpParams(max_steps=30), 2, 5)
        assert json.loads(out.read_text())["scores"] == expected.scores

    @pytest.mark.parametrize("env, field", [({"max_steps": 0}, "eval.env.max_steps"),
                                            ({"dt": "fast"}, "eval.env.dt"),
                                            ({"mass": 1.0}, "eval.env: unknown fields")])
    def test_bad_recorded_env_rejected(self, trained_run, tmp_path, capsys, env, field):
        champ = json.loads((trained_run / "champion.json").read_text())
        champ["eval"]["env"].update(env)
        bad, out = tmp_path / "bad.json", tmp_path / "r.json"
        bad.write_text(json.dumps(champ))
        assert main(["eval", "--champion", str(bad), "--episodes", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert field in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["eval", "--champion", str(REFERENCE_CHAMPION), "--episodes", "2",
                     "--seed", "-1", "--out", str(out)]) == 1
        assert not out.exists()
        assert "base_seed" in capsys.readouterr().err

    def test_corrupted_checkpoint(self, trained_run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["eval", "--champion", str(bad)]) == 2

    def test_trajectory_dump(self, trained_run, tmp_path):
        traj = tmp_path / "traj.csv"
        assert main(["eval", "--champion", str(trained_run / "champion.json"),
                     "--episodes", "1", "--out", str(tmp_path / "r.json"),
                     "--dump-trajectory", str(traj)]) == 0
        lines = traj.read_text().strip().splitlines()
        assert lines[0] == "t,x,x_dot,theta,theta_dot,action,reward"
        assert len(lines) > 1

    def test_trajectory_is_episode_seed_of_the_eval(self, tmp_path, monkeypatch):
        # The dump is episode --seed as the eval scored it, in its one
        # rollout, so its rewards sum bitwise to the report's first score.
        # Episode 22 runs off the rail early, while the other two go on.
        out, traj = tmp_path / "r.json", tmp_path / "traj.csv"
        env = SwingUpParams(max_steps=150, reset_noise=0.5)
        cfg = write_config(tmp_path / "env.yaml", env={"max_steps": 150, "reset_noise": 0.5})
        rollouts, scores = [], harness._scores
        monkeypatch.setattr(harness, "_scores",
                            lambda *args: rollouts.append(args[3]) or scores(*args))
        assert main(["eval", "--champion", str(REFERENCE_CHAMPION), "--episodes", "3",
                     "--seed", "22", "--config", str(cfg), "--out", str(out),
                     "--dump-trajectory", str(traj)]) == 0
        assert rollouts == [[22, 23, 24]]
        with open(traj) as fh:
            rows = list(csv.DictReader(fh))
        total = 0.0
        for row in rows:
            total += float(row["reward"])
        assert total == json.loads(out.read_text())["scores"][0]
        arch, genome, _ = load_champion(REFERENCE_CHAMPION)
        _, lengths = oracle.evaluation_scores(genome, arch, env, 3, 22)
        assert len(rows) == lengths[0][0] < env.max_steps
        assert [int(row["t"]) for row in rows] == list(range(1, len(rows) + 1))


class TestProbe:
    def test_probe_layer_csv(self, trained_run, tmp_path):
        out = tmp_path / "probe"
        assert main(["probe", "--champion", str(trained_run / "champion.json"),
                     "--layer", "2", "--out-dir", str(out)]) == 0
        lines = (out / "traces_layer2.csv").read_text().strip().splitlines()
        assert len(lines) == 1001
        assert len(lines[0].split(",")) == 1 + 2 * 4  # 4 neurons in layer 2
        div = json.loads((out / "divergence_layer2.json").read_text())
        assert len(div["per_neuron"]) == 4

    def test_invalid_layer(self, trained_run, tmp_path):
        assert main(["probe", "--champion", str(trained_run / "champion.json"),
                     "--layer", "7", "--out-dir", str(tmp_path / "x")]) == 1

    def test_plain_tanh_champion_rejected(self, tmp_path, capsys):
        arch = Architecture((5, 4, 1), NeuronMode.PLAIN_TANH)
        champ = tmp_path / "ffnn.json"
        save_champion(champ, arch, initial_genome(arch))
        out = tmp_path / "x"
        assert main(["probe", "--champion", str(champ), "--layer", "1",
                     "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert "neuron_mode" in capsys.readouterr().err


def crash_after_rows(monkeypatch, rows=3):
    """The next CSV write raises after ``rows`` rows, as on a full disk."""
    written, csv_row = [], rundir.csv_row

    def crashing_row(values):
        if len(written) == rows:
            raise OSError("disk full")
        written.append(values)
        return csv_row(values)

    monkeypatch.setattr(rundir, "csv_row", crashing_row)


def crash_in_json_dump(monkeypatch):
    """The next ``json.dump`` raises after a partial object, as on a full disk."""
    def crashing_dump(obj, fh, **kwargs):
        fh.write('{"layer": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", crashing_dump)


class TestOutputsAreAtomic:
    # Every output but the streamed history.csv goes to a file beside it,
    # renamed over it once whole.
    @pytest.mark.parametrize("argv, name, crash", [
        (["eval", "--episodes", "2", "--out", "{out}/e.json", "--dump-trajectory",
          "{out}/traj.csv"], "traj.csv", crash_after_rows),
        (["probe", "--layer", "2", "--out-dir", "{out}"], "traces_layer2.csv",
         crash_after_rows),
        (["probe", "--layer", "2", "--out-dir", "{out}"], "divergence_layer2.json",
         crash_in_json_dump),
    ], ids=["trajectory-csv", "traces-csv", "divergence-json"])
    def test_crash_mid_write_keeps_previous(self, tmp_path, monkeypatch, argv, name, crash):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text("previous\n")
        crash(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            main([arg.format(out=out) for arg in argv] +
                 ["--champion", str(REFERENCE_CHAMPION)])
        monkeypatch.undo()
        assert (out / name).read_text() == "previous\n"
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("argv, named", [
        (["eval", "--episodes", "2", "--out", "{tmp}/missing/e.json"], "{tmp}/missing/e.json"),
        (["eval", "--episodes", "2", "--out", "{tmp}/e.json", "--dump-trajectory",
          "{tmp}/missing/t.csv"], "{tmp}/missing/t.csv"),
        (["probe", "--layer", "2", "--out-dir", "{tmp}/a-file"], "{tmp}/a-file"),
        (["eval", "--episodes", "2", "--out", "{tmp}/a-dir"], "{tmp}/a-dir"),
        (["train", "--preset", "cartpole-simple", "--out-dir", "{tmp}/a-file"], "{tmp}/a-file"),
    ], ids=["eval-out", "trajectory", "probe-out-dir", "eval-out-is-a-dir", "train-out-dir"])
    def test_unwritable_path_is_an_error_naming_it(self, tmp_path, capsys, argv, named):
        # The error names the path given, not the file written beside it,
        # and the command writes nothing: not that file, nor an eval --out
        # before its --dump-trajectory fails.
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-dir").mkdir()
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if argv[0] != "train":
            argv += ["--champion", str(REFERENCE_CHAMPION)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named.format(tmp=tmp_path) in err
        assert ".tmp" not in err
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["a-dir", "a-file"]

    def test_failed_genomes_crash_mid_write_keeps_previous(self, tmp_path, monkeypatch):
        def fails(self, genomes, generation):
            raise FloatingPointError("injected failure")

        def crashing_save(fh, arr):
            fh.write(b"\x93NUMPY partial")
            raise OSError("disk full")

        cfg = write_config(tmp_path / "cfg.yaml")
        out = tmp_path / "run"
        out.mkdir()
        (out / "failed_genomes_gen0.npy").write_text("previous\n")
        monkeypatch.setattr(cli.PopulationEvaluator, "__call__", fails)
        monkeypatch.setattr(rundir.np, "save", crashing_save)
        with pytest.raises(OSError, match="disk full"):
            main(["train", "--config", str(cfg), "--out-dir", str(out), "--quiet"])
        assert (out / "failed_genomes_gen0.npy").read_text() == "previous\n"
        assert not list(out.glob("*.tmp"))


def assert_resume_matches_uninterrupted(trained_run, tmp_path, ckpt_name):
    # Restart from the checkpoint in a fresh directory.
    ckpt = trained_run / "checkpoints" / ckpt_name
    out2 = tmp_path / "resumed"
    assert main(["resume", "--checkpoint", str(ckpt), "--out-dir", str(out2),
                 "--quiet"]) == 0
    assert history_without_wallclock(trained_run / "history.csv") == \
        history_without_wallclock(out2 / "history.csv")
    champ1 = json.loads((trained_run / "champion.json").read_text())
    champ2 = json.loads((out2 / "champion.json").read_text())
    assert champ1["genome"] == champ2["genome"]


def edited_checkpoint(trained_run, tmp_path, edit, generation=2):
    """A copy of the checkpoint of ``generation`` after ``edit`` of its
    members, where the JSON member ``meta`` is decoded."""
    with np.load(trained_run / "checkpoints" / f"runner_gen{generation}.npz") as npz:
        members = {name: npz[name] for name in npz.files}
    members["meta"] = json.loads(members["meta"].tobytes())
    edit(members)
    if "meta" in members:
        members["meta"] = np.frombuffer(json.dumps(members["meta"]).encode(), dtype=np.uint8)
    ckpt = tmp_path / "edited.npz"
    np.savez(ckpt, **members)
    return ckpt


def resume_fails(ckpt, tmp_path, capsys, field, code=2):
    """Resume from ``ckpt`` fails with ``code``, names ``field`` (and, where
    the checkpoint is refused, its path) and makes no run."""
    out = tmp_path / "resumed"
    assert main(["resume", "--checkpoint", str(ckpt), "--out-dir", str(out),
                 "--quiet"]) == code
    assert not out.exists()
    err = capsys.readouterr().err
    assert field in err
    assert code != 2 or str(ckpt) in err


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class _Unpickles:
    def __reduce__(self):
        return _record_unpickling, ()


class TestResume:
    def test_resume_matches_uninterrupted(self, trained_run, tmp_path):
        # Generation 2 is the hand-over to CMA-ES.
        assert_resume_matches_uninterrupted(trained_run, tmp_path, "runner_gen2.npz")

    def test_resume_mid_cma_matches_uninterrupted(self, trained_run, tmp_path):
        # Generation 3 is mid CMA stage.
        assert_resume_matches_uninterrupted(trained_run, tmp_path, "runner_gen3.npz")

    def test_resume_ga_stage_matches_uninterrupted(self, trained_run, tmp_path):
        assert_resume_matches_uninterrupted(trained_run, tmp_path, "runner_gen1.npz")

    def test_resume_openes_matches_uninterrupted(self, tmp_path):
        cfg = write_config(tmp_path / "openes.yaml", preset="cartpole-same-ffnn",
                           arch={"layer_sizes": [5, 4, 1]},
                           optimizer={"total_generations": 4, "openes_pop": 4,
                                      "eval_every": 2, "eval_episodes": 2})
        run = tmp_path / "openes"
        assert main(["train", "--config", str(cfg), "--out-dir", str(run), "--quiet"]) == 0
        assert_resume_matches_uninterrupted(run, tmp_path, "runner_gen2.npz")

    def test_resume_finished_run_is_noop(self, trained_run, capsys):
        ckpt = trained_run / "checkpoints" / "runner_gen4.npz"
        assert main(["resume", "--checkpoint", str(ckpt), "--quiet"]) == 0
        assert "finished" in capsys.readouterr().out

    def test_resume_with_edited_arch_rejected(self, trained_run, tmp_path):
        cfg = write_config(tmp_path / "edited.yaml",
                           **{"arch.layer_sizes": [5, 8, 4, 1]})
        ckpt = trained_run / "checkpoints" / "runner_gen2.npz"
        assert main(["resume", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x"), "--quiet"]) == 1

    def test_crash_during_checkpoint_keeps_previous(self, trained_run, tmp_path,
                                                     monkeypatch):
        from evounits import cli

        ckpt_dir = tmp_path / "checkpoints"
        ckpt_dir.mkdir()
        target = ckpt_dir / "runner.npz"
        shutil.copy(trained_run / "checkpoints" / "runner_gen2.npz", target)
        later = rundir.load_runner_checkpoint(trained_run / "checkpoints" / "runner_gen4.npz")

        def crashing_savez(fh, **arrays):
            fh.write(b"partial checkpoint bytes")
            raise OSError("disk full")

        monkeypatch.setattr(rundir.np, "savez", crashing_savez)
        with pytest.raises(OSError, match="disk full"):
            rundir.save_runner_checkpoint(target, from_dict(later["config"]), tmp_path,
                                        later["runner"])
        monkeypatch.undo()
        assert [p.name for p in ckpt_dir.iterdir()] == ["runner.npz"]
        assert rundir.load_runner_checkpoint(target)["runner"].generation == 2
        assert main(["resume", "--checkpoint", str(target), "--out-dir",
                     str(tmp_path / "resumed"), "--quiet"]) == 0

    def test_resume_with_spelled_out_default_accepted(self, trained_run, tmp_path):
        # A config that writes out a default resolves to the checkpointed one.
        cfg = write_config(tmp_path / "same.yaml", env={"max_steps": 100, "dt": 0.01})
        ckpt = trained_run / "checkpoints" / "runner_gen2.npz"
        out = tmp_path / "resumed"
        assert main(["resume", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out-dir", str(out), "--quiet"]) == 0
        assert history_without_wallclock(trained_run / "history.csv") == \
            history_without_wallclock(out / "history.csv")

    def test_checkpointed_output_kinds_rejected(self, trained_run, tmp_path, capsys):
        ckpt = edited_checkpoint(trained_run, tmp_path, lambda members: members[
            "meta"]["config"]["arch"].update(output_kinds=["tanh"]))
        resume_fails(ckpt, tmp_path, capsys, "output_kinds", code=1)

    def test_schema_3_pickle_refused_unread(self, tmp_path, capsys):
        # Versions 1 to 3 pickled the runner; loading one would run its code.
        ckpt = tmp_path / "runner_gen2.pkl"
        with open(ckpt, "wb") as fh:
            pickle.dump({"schema_version": 3, "runner": _Unpickles()}, fh)
        resume_fails(ckpt, tmp_path, capsys, "schema_version")
        assert not UNPICKLED

    # Generation 2 is the hand-over to CMA-ES; generation 1 is in the GA
    # stage, where the tiny run keeps one elite.
    @pytest.mark.parametrize("generation, edit, field", [
        pytest.param(2, lambda m: m["meta"].update(schema_version=3), "schema_version",
                     id="old-version"),
        pytest.param(2, lambda m: m["meta"].update(schema_version=4), "schema_version",
                     id="version-4"),
        # 5.0 resumed, and "5" was refused as version 5.
        pytest.param(2, lambda m: m["meta"].update(schema_version=5.0),
                     "schema_version: must be an integer, got 5.0", id="version-float"),
        pytest.param(2, lambda m: m["meta"].update(schema_version="5"),
                     "schema_version: must be an integer, got '5'", id="version-string"),
        pytest.param(2, lambda m: m.pop("optimizer.cov"), "optimizer.cov", id="no-cov"),
        pytest.param(2, lambda m: m.pop("best"), "best", id="no-best"),
        pytest.param(2, lambda m: m.pop("meta"), "meta", id="no-meta"),
        pytest.param(2, lambda m: m["meta"].pop("generation"), "generation",
                     id="no-generation"),
        pytest.param(2, lambda m: m["meta"].update(generation=True),
                     "meta.generation: must be an integer", id="generation-bool"),
        pytest.param(2, lambda m: m["meta"].update(generation=-4),
                     "meta.generation: must be at least 0, got -4", id="negative-generation"),
        pytest.param(2, lambda m: m["meta"]["optimizer"].update(generation=True),
                     "optimizer.generation: must be an integer", id="cma-generation-bool"),
        pytest.param(2, lambda m: m["meta"]["optimizer"].pop("rng"), "optimizer.rng",
                     id="no-rng"),
        pytest.param(2, lambda m: m["meta"]["optimizer"].update(sigma="0.5"),
                     "optimizer.sigma", id="sigma-string"),
        pytest.param(2, lambda m: m.update({"optimizer.cov": m["optimizer.cov"][:-1]}),
                     "optimizer.cov", id="short-triangle"),
        pytest.param(2, lambda m: m.update({"optimizer.mean": m["optimizer.mean"][:, None]}),
                     "optimizer.mean", id="mean-2d"),
        pytest.param(2, lambda m: m.update(meta=[]), "meta", id="meta-list"),
        pytest.param(2, lambda m: m["meta"].update(config=["tiny"]), "config",
                     id="config-list"),
        pytest.param(2, lambda m: m["meta"].update(optimizer=None), "optimizer",
                     id="optimizer-null"),
        pytest.param(2, lambda m: m["meta"].update(stage="openes"), "stage: 'openes'",
                     id="foreign-stage"),
        pytest.param(2, lambda m: m["meta"].update(history=[[0, "ga"]]), "history: ",
                     id="short-history-row"),
        pytest.param(2, lambda m: m["meta"]["history"][1].__setitem__(0, 0.5),
                     "history: row 1", id="history-float-generation"),
        pytest.param(2, lambda m: m["meta"]["history"][0].__setitem__(slice(2, None), [None] * 6),
                     "history: row 0", id="history-nulls"),
        pytest.param(2, lambda m: m["meta"]["history"][1].__setitem__(1, ["ga"]),
                     "history: row 1", id="history-list-stage"),
        pytest.param(1, lambda m: m["meta"]["optimizer"].update(parents=0),
                     "optimizer.parents", id="zero-parents"),
        pytest.param(1, lambda m: m["meta"]["optimizer"].update(parents=2),
                     "optimizer.parents", id="parents-over-elites"),
        pytest.param(1, lambda m: m["meta"]["optimizer"].update(parents=1.0),
                     "optimizer.parents", id="parents-float"),
        pytest.param(1, lambda m: m["meta"]["optimizer"].update(parents=True),
                     "optimizer.parents: must be an integer", id="parents-bool"),
        pytest.param(1, lambda m: m.update({"optimizer.elites": np.tile(
            m["optimizer.elites"], (2, 1))}), "optimizer.elites", id="elites-extra-row"),
        pytest.param(1, lambda m: m.pop("optimizer.elites"), "optimizer.elites",
                     id="no-elites"),
    ])
    def test_bad_checkpoint_names_its_field(self, trained_run, tmp_path, capsys,
                                            generation, edit, field):
        resume_fails(edited_checkpoint(trained_run, tmp_path, edit, generation), tmp_path,
                     capsys, field)

    def test_ga_checkpoint_holds_elites_not_population(self, trained_run):
        ckpt = trained_run / "checkpoints" / "runner_gen1.npz"
        with zipfile.ZipFile(ckpt) as zf:
            names = sorted(zf.namelist())
        assert names == sorted(f"{name}.npy" for name in (
            "meta", "best", "champion", "optimizer.elites"))
        with np.load(ckpt, allow_pickle=False) as npz:
            assert npz["optimizer.elites"].shape == (1, 96)
            meta = json.loads(npz["meta"].tobytes())
        assert meta["schema_version"] == 5 and meta["optimizer"]["parents"] == 1

    def test_checkpoint_is_one_pickle_free_archive(self, trained_run):
        ckpt = trained_run / "checkpoints" / "runner_gen3.npz"
        with zipfile.ZipFile(ckpt) as zf:
            names = sorted(zf.namelist())
        assert names == sorted(f"{name}.npy" for name in (
            "meta", "best", "champion", "optimizer.mean", "optimizer.cov",
            "optimizer.p_sigma", "optimizer.p_c"))
        with np.load(ckpt, allow_pickle=False) as npz:
            assert npz["optimizer.cov"].shape == (96 * 97 // 2,)
            assert all(npz[name].dtype != object for name in npz.files)

    def test_resume_missing_checkpoint(self, tmp_path):
        assert main(["resume", "--checkpoint", str(tmp_path / "nope.npz"),
                     "--quiet"]) == 2


class TestWeightImmutability:
    def test_checksum_survives_training(self, trained_run):
        from evounits.architecture import sample_weights
        from evounits.rundir import weight_checksum

        arch, _, _ = load_champion(trained_run / "champion.json")
        champ = json.loads((trained_run / "champion.json").read_text())
        assert weight_checksum(sample_weights(arch)) == champ["weight_checksum"]
