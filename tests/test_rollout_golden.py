"""Golden bitwise tests: the production rollout, which steps only running
episodes, against the full-batch oracle in ``rollout_oracle``.

Arch 5-128-64-1 at the production chunk size, so the weight products run
through the same BLAS kernels as training does.
"""

from pathlib import Path

import numpy as np
import pytest

import rollout_oracle as oracle
from evounits import harness
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate, evaluate_population
from evounits.network import load_champion
from evounits.neural_unit import NeuronMode

SIZES = (5, 128, 64, 1)
ENV = SwingUpParams(max_steps=160)
# Wide start-state noise: episodes of one genome end at many different steps.
NOISY_ENV = SwingUpParams(max_steps=160, reset_noise=1.0)
CHAMPION = Path(__file__).resolve().parent.parent / "artifacts" / "reference_champion.json"


def staggered_population(arch, rng):
    """168 candidates in two chunks of the production size.

    The first chunk is one zero genome, whose cart never leaves the rail,
    and 127 candidates whose output unit is pushed off centre by a bias of
    0.5 to 2.0 and only weakly coupled to the hidden layers, so they run off
    the rail at staggered steps and leave the zero genome as the last live
    row. The second chunk is 40 plain random candidates.
    """
    dim = count_parameters(arch)
    first = rng.normal(0, 1, (harness.CHUNK_SIZE, dim))
    n = first.shape[0]
    bias = np.linspace(0.5, 2.0, n) * np.where(np.arange(n) % 2, 1, -1)
    if arch.neuron_mode is NeuronMode.RECURRENT:
        first[:, -6:-4] *= 0.02  # input and state coefficients of the output row
        first[:, -4] = bias
    elif arch.neuron_mode is NeuronMode.SIMPLE:
        first[:, -2] *= 0.02
        first[:, -1] = bias
    else:
        first[:, -65:-1] *= 0.02  # output weights, then the output bias
        first[:, -1] = bias
    first[0] = 0.0
    return np.concatenate([first, rng.normal(0, 1, (40, dim))])


@pytest.mark.parametrize("mode", list(NeuronMode))
def test_population_fitness_bitwise(mode):
    assert harness.CHUNK_SIZE == 128
    arch = Architecture(SIZES, mode, weight_seed=1)
    genomes = staggered_population(arch, np.random.default_rng(0))
    seeds = [3, 4]
    want, lengths = oracle.population_fitness(arch, ENV, genomes, seeds, harness.CHUNK_SIZE)
    for ep_len in lengths[: len(seeds)]:  # both episodes of the first chunk
        assert np.count_nonzero(ep_len == ep_len.max()) == 1  # down to one live row
        assert ep_len.max() - np.sort(ep_len)[-2] >= 10
        assert len(np.unique(ep_len)) >= 20
    got = evaluate_population(arch, ENV, genomes, seeds)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", list(NeuronMode))
def test_evaluate_bitwise(mode):
    arch = Architecture(SIZES, mode, weight_seed=1)
    genome = np.random.default_rng(1).normal(0, 1, count_parameters(arch))
    want, lengths = oracle.evaluation_scores(genome, arch, NOISY_ENV, 40, 11, harness.CHUNK_SIZE)
    assert len(np.unique(lengths[0])) >= 10
    report = evaluate(genome, arch, NOISY_ENV, 40, 11)
    assert np.array_equal(report.scores, want)


def test_evaluate_all_live_champion_bitwise():
    # Every episode of the reference champion runs to max_steps: the path
    # where no row ever leaves.
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams(max_steps=300)
    want, lengths = oracle.evaluation_scores(genome, arch, env, 12, 5, harness.CHUNK_SIZE)
    assert np.all(lengths[0] == env.max_steps)
    report = evaluate(genome, arch, env, 12, 5)
    assert np.array_equal(report.scores, want)
