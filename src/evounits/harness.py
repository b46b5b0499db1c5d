"""Evaluation protocol and activation-probe analysis.

Evaluation runs seeded episode batches and reports mean/std scores; probes
feed an ordered input sweep straight into each neuron of a layer to expose
the activation function each unit has evolved.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .architecture import Architecture
from .cartpole import BatchedSwingUp, SwingUpParams, check_arch
from .errors import ConfigError
from .neural_unit import NeuronMode
from .network import BatchedPolicy, worker_splits
from .rundir import write_eval_json  # noqa: F401  the name perfbench/ writes eval.json by
from .schema import check_value

# Evaluation episode seeds live far away from training seeds (which count up
# from the master seed by generation).
EVAL_SEED_OFFSET = 1_000_000_007


@dataclass
class EvalReport:
    genome_id: str
    scores: list
    mean: float
    std: float
    n_episodes: int
    base_seed: int


@dataclass
class LayerProbe:
    """Responses of one layer's units to an input swept from lo up to hi.

    ``outputs`` and ``states`` are (len(inputs), n), one column per unit;
    ``states`` is None for simple (stateless) units. ``divergence`` holds,
    per unit, the largest |upward - downward| output at equal input.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    states: np.ndarray | None
    divergence: np.ndarray


def _fill_order(done):
    """Live rows in their new places: ended rows' places in the new live
    block go to the live rows beyond it; every other row (row 0 too) stays."""
    order = np.arange(done.size - np.count_nonzero(done))
    holes = np.flatnonzero(done[: order.size])
    order[holes] = order.size + np.flatnonzero(~done[order.size :])
    return order


def _scores(arch, env_params, genomes, seeds, trajectory=None, first_row=0):
    """Total reward of one episode per row: row i runs ``genomes[i]`` from
    ``seeds[i]``, all stepped together as one batch whose first row is row
    ``first_row`` of the population (see :class:`BatchedPolicy`).

    Only running episodes are stepped: rows whose episode ended leave both
    the policy and the env (see :func:`_fill_order`), and the loop stops
    when none is left. A ``trajectory`` list gets one (t, x, x_dot, theta,
    theta_dot, action, reward) tuple per step of row 0's episode.
    """
    net = BatchedPolicy(arch, genomes, first_row)
    env = BatchedSwingUp(env_params)
    obs = env.reset(seeds)
    totals = np.zeros(len(seeds))
    while net.rows.size:
        actions = net.forward(obs)
        obs, reward, done = env.step(actions[:, 0])
        totals[net.rows] += reward
        if trajectory is not None and net.rows[0] == 0:
            trajectory.append((env.t, *env.state[:, 0], actions[0, 0], reward[0]))
        if done.any():
            order = _fill_order(done)
            net.keep(order)
            env.keep(order)
            obs = obs[order]
    return totals


def _mean_scores(arch, env_params, episode_seeds, genomes, first_row=0):
    """Mean episode score per candidate, one batch per seed, as :func:`_scores`."""
    n = genomes.shape[0]
    totals = np.zeros(n)
    for seed in episode_seeds:
        totals += _scores(arch, env_params, genomes, [seed] * n, first_row=first_row)
    return totals / len(episode_seeds)


def evaluate_population(arch, env_params, genomes, episode_seeds, workers=1):
    """Fitness for every candidate: mean total reward over the given seeds.

    One worker steps the whole population together. A pool gives each
    worker an even contiguous split; each fitness stays bitwise independent
    of the worker count (see :func:`~evounits.network.worker_splits`).
    """
    check_arch(arch)
    workers = check_value("workers", workers, int, at_least=1)
    genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
    bounds = worker_splits(arch, genomes.shape[0], workers)
    if len(bounds) == 2:
        return _mean_scores(arch, env_params, episode_seeds, genomes)
    rollout = partial(_mean_scores, arch, env_params, episode_seeds)
    splits = np.split(genomes, bounds[1:-1])
    with ProcessPoolExecutor(max_workers=len(splits)) as pool:
        return np.concatenate(list(pool.map(rollout, splits, bounds[:-1])))


class PopulationEvaluator:
    """Training-time fitness function: candidates in one generation share the
    same episode seed(s), and seeds advance with the generation counter.
    """

    def __init__(self, arch: Architecture, env_params: SwingUpParams,
                 episodes_per_candidate=1, train_seed_base=0, workers=1):
        self.arch = arch
        self.env_params = env_params
        self.episodes = check_value("episodes_per_candidate", episodes_per_candidate, int,
                                    at_least=1)
        self.train_seed_base = check_value("train_seed_base", train_seed_base, int, at_least=0)
        self.workers = check_value("workers", workers, int, at_least=1)

    def seeds_for_generation(self, generation):
        base = self.train_seed_base + generation * self.episodes
        return [base + k for k in range(self.episodes)]

    def __call__(self, genomes, generation):
        return evaluate_population(
            self.arch, self.env_params, genomes,
            self.seeds_for_generation(generation), workers=self.workers,
        )


def evaluate(genome, arch: Architecture, env_params: SwingUpParams,
             n_episodes, base_seed, genome_id="genome", trajectory=None) -> EvalReport:
    """Score one genome over episodes seeded base_seed .. base_seed+n-1; a
    ``trajectory`` list gets the first episode's steps, as :func:`_scores` does."""
    n_episodes = check_value("n_episodes", n_episodes, int, at_least=1)
    base_seed = check_value("base_seed", base_seed, int, at_least=0)
    check_arch(arch)
    genome = np.asarray(genome, dtype=np.float64)
    genomes = np.broadcast_to(genome, (n_episodes, genome.size))
    seeds = [base_seed + k for k in range(n_episodes)]
    scores = _scores(arch, env_params, genomes, seeds, trajectory)
    return EvalReport(genome_id, scores.tolist(), float(scores.mean()), float(scores.std()),
                      n_episodes, base_seed)


def probe_layer(genome, arch: Architecture, layer, n_points=1000, lo=-3.0,
                hi=3.0) -> LayerProbe:
    """Sweep an input through every unit of one layer of a unit-mode network.

    Inputs go directly into the units (bypassing the random weights)
    through the policy's own layer step, :meth:`BatchedPolicy.step_layer`
    of a two-row batch: row 0 sweeps from lo up to hi and row 1 from hi
    down to lo, from zero states. Stateless units diverge by exactly zero;
    state-coupled units generally do not, which is the history-dependence
    signature.
    """
    mode = arch.neuron_mode
    if mode is NeuronMode.PLAIN_TANH:
        raise ConfigError("neuron_mode: probes apply to unit-mode networks only")
    layer = check_value("layer", layer, int, at_least=0)
    n_points = check_value("n_points", n_points, int, at_least=1)
    if layer >= arch.n_layers:
        raise ConfigError(f"layer: index {layer} out of range for {arch.n_layers} layers")
    net = BatchedPolicy(arch, [genome, genome])
    inputs = np.linspace(lo, hi, n_points)
    sweeps = np.stack([inputs, inputs[::-1]], axis=1)[:, :, None]  # (t, row, 1)
    # (t, plane, row, unit): plane 0 holds outputs, plane 1 recurrent states.
    traces = np.stack([net.step_layer(layer, x).copy() for x in sweeps])
    # Align by input value: reverse the downward sweep.
    divergence = np.abs(traces[:, 0, 0] - traces[::-1, 0, 1]).max(axis=0)
    states = traces[:, 1, 0] if mode is NeuronMode.RECURRENT else None
    return LayerProbe(inputs, traces[:, 0, 0], states, divergence)
