"""Acceptance gate: one test per criterion, each prints a PASS line.

Tiers:
  - property suite and optimizer oracles run always;
  - desk-scale training reproduction is opt-in (EVOUNITS_RUN_SLOW=1), and can
    reuse finished run directories via EVOUNITS_GATE_DIR / EVOUNITS_FULL_DIR;
  - the full paper schedule is opt-in separately (EVOUNITS_FULL_SCALE=1).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from evounits.architecture import Architecture, count_parameters, sample_weights
from evounits.cartpole import SwingUpParams
from evounits.cli import _run_training
from evounits.config import from_preset
from evounits.genome import decode, initial_genome
from evounits.harness import (
    EVAL_SEED_OFFSET,
    PopulationEvaluator,
    evaluate,
    probe_layer,
)
from evounits.neural_unit import NeuronMode, layer_step_recurrent
from evounits.rundir import weight_checksum
from evounits.optimizers import (
    CmaEs,
    GeneticAlgorithm,
    OpenEs,
    PipelineConfig,
    PipelineRunner,
)
from genomes import flat_genome


def ok(name):
    print(f"\nACCEPTANCE PASS: {name}")


def sphere(x):
    return -np.sum(np.square(x), axis=-1)


class TestPropertySuite:
    def test_unit_outputs_bounded_and_zero_identities(self):
        rng = np.random.default_rng(0)
        n = 100_000
        params = rng.normal(0, 5, (2, 3, n))  # parameter-major: one plane per coefficient
        x = rng.normal(0, 5, n)
        h = rng.uniform(-1, 1, n)
        planes = np.stack([np.empty(n), h])
        layer_step_recurrent(params, x, planes, np.empty(n))
        assert np.all(np.abs(planes) <= 1.0)
        planes0 = np.ones((2, 10))
        layer_step_recurrent(np.zeros((2, 3, 10)), np.ones(10), planes0, np.empty(10))
        assert not planes0.any()
        ok("unit outputs/states in [-1,1] over 1e5 samples; zero-param identities")

    def test_genome_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        archs = [
            Architecture((5, 128, 64, 1), NeuronMode.RECURRENT),
            Architecture((5, 128, 64, 1), NeuronMode.SIMPLE),
            Architecture((5, 32, 32, 1), NeuronMode.PLAIN_TANH),
        ]
        for arch in archs:
            dim = count_parameters(arch)
            for _ in range(334):
                g = rng.normal(0, 10, dim)
                assert np.array_equal(flat_genome(decode(g, arch)), g)
        ok("genome decode/concatenate round-trip bit-exact over 1e3 random genomes")

    def test_weight_immutability_through_training(self, tmp_path):
        cfg = from_preset("cartpole-recurrent", {
            "env": {"max_steps": 50},
            "arch": {"layer_sizes": [5, 6, 4, 1], "neuron_mode": "recurrent"},
            "optimizer": {
                "total_generations": 5, "ga_generations": 3, "ga_pop": 8,
                "cmaes_pop": 4, "eval_every": 5, "eval_episodes": 2,
            },
            "evaluation": {"final_eval_episodes": 2},
        })
        arch = cfg.architecture()
        before = weight_checksum(sample_weights(arch))
        _run_training(cfg, tmp_path / "run", quiet=True)
        after = weight_checksum(sample_weights(arch))
        champ = json.loads((tmp_path / "run" / "champion.json").read_text())
        assert before == after == champ["weight_checksum"]
        ok("weight checksum identical before/after a 5-generation training run")

    def test_optimizer_state_health_over_smoke_run(self):
        ga = GeneticAlgorithm(np.full(10, 3.0), popsize=32, seed=0)
        best = []
        for _ in range(50):
            f = sphere(ga.ask())
            best.append(f.max())
            ga.tell(f)
        assert np.all(np.diff(best) >= 0)

        es = OpenEs(np.ones(8), popsize=16, seed=1)
        center = es.center.copy()
        es.ask()
        es.tell(np.full(16, 5.0))
        assert np.array_equal(es.center, center)

        cma = CmaEs(np.ones(12), sigma0=0.5, popsize=16, seed=2)
        for _ in range(50):
            cma.tell(sphere(cma.ask()))
            assert cma.sigma > 0
            assert np.array_equal(cma.cov, cma.cov.T)
        ok("GA monotone best; OpenES zero-update exact; CMA-ES sigma>0, C symmetric")

    def test_probe_divergence_identities(self):
        simple = Architecture((5, 8, 4, 1), NeuronMode.SIMPLE, weight_seed=1)
        g = np.random.default_rng(3).normal(0, 2, count_parameters(simple))
        for layer in range(4):
            assert probe_layer(g, simple, layer).divergence.max() == 0.0

        rec = Architecture((3, 2, 1), NeuronMode.RECURRENT)
        layers = [np.zeros((n, 2, 3)) for n in rec.layer_sizes]
        layers[1][0] = [[1.5, 0.0, -0.3], [0.0, 0.0, 0.0]]
        probe = probe_layer(flat_genome(layers), rec, 1)
        assert np.max(np.abs(probe.outputs[:, 0] - np.tanh(1.5 * probe.inputs - 0.3))) <= 1e-12
        ok("simple-mode divergence exactly 0; state-decoupled probe == simple "
           "activation within 1e-12")


class TestOptimizerOracles:
    def test_cmaes_sphere_dim10_five_seeds(self):
        for seed in range(5):
            es = CmaEs(np.ones(10), sigma0=0.5, seed=seed)
            evals, best = 0, np.inf
            while evals < 20_000 and best >= 1e-10:
                x = es.ask()
                f = sphere(x)
                es.tell(f)
                evals += len(x)
                best = min(best, -f.max())
            assert best < 1e-10, f"seed {seed}: best {best}"
        ok("CMA-ES sphere dim 10 below 1e-10 within 20k evaluations, 5/5 seeds")

    def test_pipeline_beats_pure_ga_sphere_dim50(self):
        wins = 0
        for seed in range(5):
            x0 = np.random.default_rng(1000 + seed).normal(0, 1, 50)
            pipe = PipelineRunner(
                PipelineConfig(total_generations=500, ga_generations=100,
                               ga_pop=512, cmaes_pop=128, seed=seed),
                50, x0,
            ).run(lambda c, g: sphere(c))
            ga = GeneticAlgorithm(x0, popsize=512, seed=seed)
            ga_best = -np.inf
            for _ in range(500):
                f = sphere(ga.ask())
                ga_best = max(ga_best, f.max())
                ga.tell(f)
            pipe_best = max(r.best_fitness for r in pipe.history)
            wins += pipe_best > ga_best
        assert wins >= 4, f"pipeline won only {wins}/5"
        ok("pipeline (100 GA + 400 CMA-ES) beats 500-gen GA on sphere dim 50 "
           f"in {wins}/5 seeds")


def _reduced_gate_config(seed):
    return from_preset("cartpole-recurrent", {
        "optimizer": {"total_generations": 500},
        "seeds": {"master_seed": seed, "weight_seed": seed},
        "run": {"checkpoint_every": 100},
    })


def _champion_eval_mean(run_dir):
    champ = json.loads((Path(run_dir) / "champion.json").read_text())
    return champ["eval"]["mean"]


def _trained_run_dir(tmp_root, seed, cfg, cache_env):
    """Reuse a finished run directory if a cache dir is provided, else train."""
    cache = os.environ.get(cache_env)
    if cache:
        cached = Path(cache) / f"run{seed}"
        if (cached / "champion.json").exists():
            return cached
    out = Path(tmp_root) / f"run{seed}"
    if not (out / "champion.json").exists():
        _run_training(cfg, out, quiet=True)
    return out


@pytest.fixture(scope="session")
def gate_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("gate")
    return [
        _trained_run_dir(root, seed, _reduced_gate_config(seed), "EVOUNITS_GATE_DIR")
        for seed in range(3)
    ]


class TestDeskScaleReproduction:
    def test_untrained_baseline_scores_below_50(self):
        arch = Architecture((5, 128, 64, 1), NeuronMode.RECURRENT, weight_seed=0)
        report = evaluate(initial_genome(arch), arch, SwingUpParams(), 100,
                          EVAL_SEED_OFFSET)
        assert report.mean < 50.0
        ok(f"zero-genome baseline mean {report.mean:.2f} < 50 over 100 episodes")

    @pytest.mark.slow
    def test_reduced_budget_gate(self, gate_runs):
        means = [_champion_eval_mean(d) for d in gate_runs]
        passing = sum(m >= 300.0 for m in means)
        assert passing >= 2, f"means {means}"
        ok(f"reduced budget (100 GA + 400 CMA-ES): means {np.round(means, 1)}; "
           f"{passing}/3 seeds >= 300")

    @pytest.mark.slow
    def test_history_dependence_and_nonmonotonicity_of_champion(self, gate_runs):
        means = [_champion_eval_mean(d) for d in gate_runs]
        best_dir = gate_runs[int(np.argmax(means))]
        from evounits.network import load_champion

        arch, genome, _ = load_champion(Path(best_dir) / "champion.json")
        probe = probe_layer(genome, arch, layer=2)
        max_divergence = probe.divergence.max()
        assert max_divergence > 0.1, f"max divergence {max_divergence}"
        nonmono = 0
        for i in range(probe.outputs.shape[1]):
            d = np.diff(probe.outputs[:, i])
            if np.any(d > 1e-9) and np.any(d < -1e-9):
                nonmono += 1
        assert nonmono >= 1
        ok(f"recurrent champion layer 2: max ordering divergence "
           f"{max_divergence:.3f} > 0.1; {nonmono}/64 non-monotone traces")

    @pytest.mark.slow
    def test_simple_mode_champion_traces_monotone(self, tmp_path):
        cfg = from_preset("cartpole-simple", {
            "optimizer": {"total_generations": 30, "ga_generations": 30,
                          "ga_pop": 64, "eval_every": 10, "eval_episodes": 8},
            "evaluation": {"final_eval_episodes": 8},
        })
        out = tmp_path / "simple_run"
        _run_training(cfg, out, quiet=True)
        from evounits.network import load_champion

        arch, genome, _ = load_champion(out / "champion.json")
        for layer in range(4):
            probe = probe_layer(genome, arch, layer)
            for i in range(probe.outputs.shape[1]):
                d = np.diff(probe.outputs[:, i])
                assert np.all(d >= 0) or np.all(d <= 0)
        ok("simple-mode champion traces all monotone or flat")

    @pytest.mark.full_scale
    def test_full_schedule_recurrent(self, tmp_path_factory):
        # Best of 3 seeds of the paper schedule must reach mean >= 800 over
        # 100 held-out episodes.
        root = tmp_path_factory.mktemp("full")
        means = []
        for seed in range(3):
            cfg = from_preset("cartpole-recurrent", {
                "seeds": {"master_seed": seed, "weight_seed": seed},
                "run": {"checkpoint_every": 500},
            })
            run_dir = _trained_run_dir(root, seed, cfg, "EVOUNITS_FULL_DIR")
            means.append(_champion_eval_mean(run_dir))
        assert max(means) >= 800.0, f"means {means}"
        ok(f"full schedule best-of-3 mean {max(means):.1f} >= 800 "
           f"(all means {np.round(means, 1)})")
