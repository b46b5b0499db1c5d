"""Evaluation protocol and activation-probe analysis.

Evaluation runs seeded episode batches and reports mean/std scores; probes
feed an ordered input sweep straight into each neuron of a layer to expose
the activation function each unit has evolved.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .architecture import Architecture
from .cartpole import BatchedSwingUp, SwingUpParams, check_arch
from .errors import ConfigError
from .genome import decode
from .neural_unit import (
    NeuronMode,
    layer_step_recurrent,
    layer_step_simple,
    parameter_major,
)
from .network import PRODUCT_ROWS, BatchedPolicy, rows_movable

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

    def to_dict(self):
        return {
            "genome_id": self.genome_id,
            "scores": [float(s) for s in self.scores],
            "mean": float(self.mean),
            "std": float(self.std),
            "n_episodes": self.n_episodes,
            "base_seed": self.base_seed,
        }


@dataclass
class ActivationTrace:
    layer: int
    neuron: int
    inputs: np.ndarray
    outputs: np.ndarray
    states: np.ndarray = None  # absent for simple (stateless) units


@dataclass
class OrderingDivergence:
    layer: int
    divergence: np.ndarray  # per neuron: max |ascending - descending| output
    max_divergence: float = field(init=False)

    def __post_init__(self):
        self.max_divergence = float(self.divergence.max()) if len(self.divergence) else 0.0


def _episode_totals(net, env, seeds, trajectory=None):
    """Total reward of one episode per row, row i seeded by ``seeds[i]``.

    Only running episodes are stepped: rows whose episode ended leave both
    the policy and the env, and the loop stops when none is left. A
    ``trajectory`` list gets one (t, x, x_dot, theta, theta_dot, action,
    reward) tuple per step of row 0's episode.
    """
    net.reset_states()
    obs = env.reset(seeds)
    totals = np.zeros(len(seeds))
    while net.rows.size:
        actions = net.forward(obs)
        obs, reward, done = env.step(actions[:, 0])
        totals[net.rows] += reward
        if trajectory is not None and net.rows[0] == 0:
            trajectory.append((env.t, *env.state[:, 0], actions[0, 0], reward[0]))
        if done.any():
            live = ~done
            net.keep(live)
            env.keep(live)
            obs = obs[live]
    return totals


def _rollout(arch, env_params, genomes, episode_seeds):
    """Mean episode score per candidate, all stepped together as one batch."""
    n = genomes.shape[0]
    net = BatchedPolicy(arch, genomes)
    env = BatchedSwingUp(env_params, n)
    totals = np.zeros(n)
    for seed in episode_seeds:
        totals += _episode_totals(net, env, [seed] * n)
    return totals / len(episode_seeds)


def _rollout_worker(args):
    return _rollout(*args)


def evaluate_population(arch, env_params, genomes, episode_seeds, workers=1):
    """Fitness for every candidate: mean total reward over the given seeds.

    One worker steps the whole population together. A pool gives each
    worker a contiguous split of the rows: an even one where
    :func:`~evounits.network.rows_movable` holds, else one of whole
    PRODUCT_ROWS-row blocks, so that each row keeps its place in its block
    and its fitness stays bitwise independent of the worker count.
    """
    check_arch(arch)
    genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
    # Probed here, the bucket tables pass to forked workers.
    step = PRODUCT_ROWS if workers > 1 and not rows_movable(arch) else 1
    units = -(-genomes.shape[0] // step)
    parts = min(workers, units)
    if parts <= 1:
        return _rollout(arch, env_params, genomes, episode_seeds)
    bounds = step * np.linspace(0, units, parts + 1).astype(int)
    payloads = [(arch, env_params, genomes[lo:hi], episode_seeds)
                for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=parts) as pool:
        return np.concatenate(list(pool.map(_rollout_worker, payloads)))


class PopulationEvaluator:
    """Training-time fitness function: candidates in one generation share the
    same episode seed(s), and seeds advance with the generation counter.
    """

    def __init__(self, arch: Architecture, env_params: SwingUpParams,
                 episodes_per_candidate=1, train_seed_base=0, workers=1):
        self.arch = arch
        self.env_params = env_params
        self.episodes = int(episodes_per_candidate)
        if self.episodes < 1:
            raise ConfigError("episodes_per_candidate: must be at least 1")
        self.train_seed_base = int(train_seed_base)
        self.workers = int(workers)

    def seeds_for_generation(self, generation):
        base = self.train_seed_base + generation * self.episodes
        return [base + k for k in range(self.episodes)]

    def __call__(self, genomes, generation):
        return evaluate_population(
            self.arch, self.env_params, genomes,
            self.seeds_for_generation(generation), workers=self.workers,
        )


def _episode_scores(genome, arch, env_params, seeds, trajectory=None):
    """One episode of ``genome`` per seed, all in one batch."""
    n = len(seeds)
    net = BatchedPolicy(arch, np.broadcast_to(genome, (n, np.size(genome))))
    return _episode_totals(net, BatchedSwingUp(env_params, n), seeds, trajectory)


def evaluate(genome, arch: Architecture, env_params: SwingUpParams,
             n_episodes, base_seed, genome_id="genome") -> EvalReport:
    """Score one genome over episodes seeded base_seed .. base_seed+n-1."""
    if n_episodes < 1:
        raise ConfigError("n_episodes: must be at least 1")
    check_arch(arch)
    genome = np.asarray(genome, dtype=np.float64)
    seeds = [base_seed + k for k in range(n_episodes)]
    scores = [float(s) for s in _episode_scores(genome, arch, env_params, seeds)]
    scores_arr = np.array(scores)
    return EvalReport(
        genome_id=genome_id,
        scores=scores,
        mean=float(scores_arr.mean()),
        std=float(scores_arr.std()),
        n_episodes=n_episodes,
        base_seed=base_seed,
    )


def episode_trajectory(genome, arch: Architecture, env_params: SwingUpParams, seed):
    """Per-step (t, x, x_dot, theta, theta_dot, action, reward) of episode
    ``seed``, a batch of one. Where :func:`~evounits.network.rows_movable`
    holds, the rewards sum bitwise to that episode's score in any
    :func:`evaluate` that runs it."""
    check_arch(arch)
    trajectory = []
    _episode_scores(genome, arch, env_params, [seed], trajectory)
    return trajectory


def _sweep(params_layer, mode, inputs):
    """Run an ordered input sweep through every unit of one layer.

    Returns (outputs, states) arrays of shape (len(inputs), n); states is
    None for simple units. State starts at zero before the first input.
    """
    params_layer = parameter_major(params_layer, mode)
    n = params_layer.shape[-1]
    steps = len(inputs)
    outputs = np.empty((steps, n))
    if mode is NeuronMode.SIMPLE:
        for t, x in enumerate(inputs):
            outputs[t] = layer_step_simple(params_layer, x)
        return outputs, None
    states = np.empty((steps, n))
    h = np.zeros(n)
    for t, x in enumerate(inputs):
        out, h = layer_step_recurrent(params_layer, np.full(n, x), h)
        outputs[t] = out
        states[t] = h
    return outputs, states


def _probed_layer_params(genome, arch: Architecture, layer):
    """Decoded unit parameters of one layer, for the direct-input probes."""
    if arch.neuron_mode is NeuronMode.PLAIN_TANH:
        raise ConfigError("neuron_mode: probes apply to unit-mode networks only")
    if not (0 <= layer < arch.n_layers):
        raise ConfigError(
            f"layer: index {layer} out of range for {arch.n_layers} layers"
        )
    return decode(genome, arch)[layer]


def probe_activations(genome, arch: Architecture, layer, n_points=1000,
                      lo=-3.0, hi=3.0):
    """Per-neuron response traces for one layer of a unit-mode network.

    Inputs go directly into the units (bypassing the random weights), in
    ascending order; neuron states are zeroed first.
    """
    params = _probed_layer_params(genome, arch, layer)
    inputs = np.linspace(lo, hi, n_points)
    outputs, states = _sweep(params, arch.neuron_mode, inputs)
    traces = []
    for i in range(params.shape[0]):
        traces.append(
            ActivationTrace(
                layer=layer,
                neuron=i,
                inputs=inputs.copy(),
                outputs=outputs[:, i].copy(),
                states=None if states is None else states[:, i].copy(),
            )
        )
    return traces


def compare_orderings(genome, arch: Architecture, layer, n_points=1000,
                      lo=-3.0, hi=3.0) -> OrderingDivergence:
    """Ascending vs. descending sweep divergence per neuron.

    Stateless units diverge by exactly zero; state-coupled units generally do
    not, which is the history-dependence signature.
    """
    params = _probed_layer_params(genome, arch, layer)
    inputs = np.linspace(lo, hi, n_points)
    out_asc, _ = _sweep(params, arch.neuron_mode, inputs)
    out_desc, _ = _sweep(params, arch.neuron_mode, inputs[::-1])
    # Align by input value: reverse the descending sweep.
    diff = np.abs(out_asc - out_desc[::-1])
    return OrderingDivergence(layer=layer, divergence=diff.max(axis=0))


def write_eval_json(path, report: EvalReport):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)


def write_trace_csv(path, traces):
    """One CSV per layer: input column, then output (and state) per neuron."""
    if not traces:
        raise ConfigError("traces: nothing to write")
    has_states = traces[0].states is not None
    header = ["input"]
    for tr in traces:
        header.append(f"out_{tr.neuron}")
        if has_states:
            header.append(f"state_{tr.neuron}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(len(traces[0].inputs)):
            row = [repr(float(traces[0].inputs[t]))]
            for tr in traces:
                row.append(repr(float(tr.outputs[t])))
                if has_states:
                    row.append(repr(float(tr.states[t])))
            writer.writerow(row)
