"""The README's reproducibility contract as properties over random shapes,
batches and episode lengths.

A candidate's fitness depends on its genome and the episode seeds alone
where every frozen-weight product's rows are stable (``network.rows_stable``);
where they are not, on its index modulo ``network.PRODUCT_ROWS`` too. Either
way it is bitwise independent of the worker count, an ``evaluate``
episode's score depends on its seed alone, not on how many episodes share
its batch, and a run resumed from any of its checkpoints ends as the
uninterrupted run does.

The three fitness properties hold with the policy computing in float64,
the shipped ``network.POLICY_DTYPE``, and in float32, where some OpenBLAS
kernels (Haswell's among them) fail the row check for common shapes.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evounits import network
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.cli import main
from evounits.config import from_dict
from evounits.harness import evaluate, evaluate_population
from evounits.neural_unit import NeuronMode
from evounits.rundir import save_config

ROWS = network.PRODUCT_ROWS
POLICY_DTYPES = (np.float64, np.float32)
# Each example sets network.POLICY_DTYPE through the test's monkeypatch.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


@st.composite
def tasks(draw):
    """(arch, env): a random 5-h1-h2-1 unit-mode network, and episodes of at
    most 40 steps on a rail short enough that they end at scattered steps."""
    mode = draw(st.sampled_from([NeuronMode.RECURRENT, NeuronMode.SIMPLE]))
    sizes = (5, draw(st.integers(1, 40)), draw(st.integers(1, 40)), 1)
    arch = Architecture(sizes, mode, weight_seed=draw(st.integers(0, 2**32)))
    env = SwingUpParams(max_steps=draw(st.integers(2, 40)),
                        x_threshold=draw(st.floats(0.05, 2.4)), reset_noise=0.5)
    return arch, env


@st.composite
def populations(draw):
    """(arch, env, genomes, episode seeds): a random task, 1 to 300 random
    candidates, and one or two episode seeds."""
    arch, env = draw(tasks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    genomes = rng.normal(0, 1, (draw(st.integers(1, 300)), count_parameters(arch)))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=2))
    return arch, env, genomes, seeds


def rows_stable(arch):
    """Whether every frozen-weight product of ``arch`` has stable rows in
    the policy's dtype."""
    shapes = zip(arch.layer_sizes, arch.layer_sizes[1:])
    return all(network.rows_stable(*shape, network.POLICY_DTYPE) for shape in shapes)


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=FIXTURE_OK)
@given(case=populations(), picks=st.lists(st.integers(0, 299), min_size=5, max_size=5))
def test_fitness_is_the_rows_fitness_alone(monkeypatch, case, picks):
    arch, env, genomes, seeds = case
    for dtype in POLICY_DTYPES:
        monkeypatch.setattr(network, "POLICY_DTYPE", dtype)
        fitness = evaluate_population(arch, env, genomes, seeds)
        strong = rows_stable(arch)
        for i in (p % len(genomes) for p in picks):
            # Alone, or where some product's rows are not stable, last of a
            # batch that puts it at the same index modulo ROWS.
            batch = genomes[i : i + 1] if strong else genomes[i - i % ROWS : i + 1]
            assert evaluate_population(arch, env, batch, seeds)[-1] == fitness[i], dtype


@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=FIXTURE_OK)
@given(case=populations())
def test_fitness_is_independent_of_the_worker_count(monkeypatch, case):
    arch, env, genomes, seeds = case
    for dtype in POLICY_DTYPES:
        monkeypatch.setattr(network, "POLICY_DTYPE", dtype)
        serial = evaluate_population(arch, env, genomes, seeds, workers=1)
        pooled = evaluate_population(arch, env, genomes, seeds, workers=2)
        assert np.array_equal(pooled, serial), dtype


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=FIXTURE_OK)
@given(task=tasks(), n=st.integers(1, 300), base_seed=st.integers(0, 10**6),
       genome_seed=st.integers(0, 2**32),
       picks=st.lists(st.integers(0, 299), min_size=5, max_size=5))
def test_episode_score_is_independent_of_n_episodes(monkeypatch, task, n, base_seed,
                                                    genome_seed, picks):
    arch, env = task
    genome = np.random.default_rng(genome_seed).normal(0, 1, count_parameters(arch))
    for dtype in POLICY_DTYPES:
        monkeypatch.setattr(network, "POLICY_DTYPE", dtype)
        scores = evaluate(genome, arch, env, n, base_seed).scores
        for k in (p % n for p in picks):
            # Where some product's rows are not stable, episode k keeps its
            # index modulo ROWS in a batch that ends with it.
            first = 0 if rows_stable(arch) else k - k % ROWS
            alone = evaluate(genome, arch, env, k - first + 1, base_seed + first).scores
            assert alone[-1] == scores[k], dtype


@st.composite
def tiny_runs(draw):
    """(config, generation): a ga-cmaes run of a few generations on a
    5-h1-h2-1 unit-mode network with short episodes, checkpointed after
    every generation, and the generation of one checkpoint, in the GA stage
    or in the CMA-ES stage (from its hand-over on)."""
    in_ga = draw(st.booleans())
    ga_generations = draw(st.integers(2 if in_ga else 1, 4))
    total = ga_generations + draw(st.integers(1, 3))
    generation = draw(st.integers(1, ga_generations - 1) if in_ga
                      else st.integers(ga_generations, total - 1))
    cfg = from_dict({
        "preset": "cartpole-recurrent",
        "name": "tiny",
        "env": {"max_steps": draw(st.integers(2, 40))},
        "arch": {"layer_sizes": [5, draw(st.integers(1, 8)), draw(st.integers(1, 8)), 1],
                 "neuron_mode": draw(st.sampled_from(["recurrent", "simple"]))},
        "optimizer": {"total_generations": total, "ga_generations": ga_generations,
                      "ga_pop": draw(st.integers(2, 8)), "cmaes_pop": draw(st.integers(2, 6)),
                      "eval_every": draw(st.integers(1, 3)), "eval_episodes": 2},
        "seeds": {"weight_seed": draw(st.integers(0, 2**32)),
                  "master_seed": draw(st.integers(0, 10**6))},
        "evaluation": {"final_eval_episodes": 2},
        "run": {"checkpoint_every": 1},
    })
    return cfg, generation


def run_outputs(out):
    """A run directory's champion and eval bytes, and its history rows
    without the wall-clock column."""
    history = [row.rsplit(",", 1)[0] for row in (out / "history.csv").read_text().splitlines()]
    return (out / "champion.json").read_bytes(), (out / "eval.json").read_bytes(), history


@settings(max_examples=30, deadline=None, derandomize=True)
@given(run=tiny_runs())
def test_resumed_run_equals_the_uninterrupted_run(run):
    cfg, generation = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_config(tmp / "cfg.yaml", cfg)
        assert main(["train", "--config", str(tmp / "cfg.yaml"), "--out-dir",
                     str(tmp / "run"), "--quiet"]) == 0
        checkpoint = tmp / "run" / "checkpoints" / f"runner_gen{generation}.npz"
        assert main(["resume", "--checkpoint", str(checkpoint), "--out-dir",
                     str(tmp / "resumed"), "--quiet"]) == 0
        assert run_outputs(tmp / "resumed") == run_outputs(tmp / "run")
