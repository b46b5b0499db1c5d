"""Golden bitwise tests: the production rollout, which steps only running
episodes, against the full-batch oracle in ``rollout_oracle``.

Arch 5-128-64-1 with populations of ``network.PRODUCT_ROWS``-row chunks,
so the weight products run through the same BLAS kernels as training does.
"""

from pathlib import Path

import numpy as np
import pytest

import rollout_oracle as oracle
from evounits import network
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate, evaluate_population
from evounits.neural_unit import NeuronMode
from evounits.rundir import load_champion

SIZES = (5, 128, 64, 1)
ENV = SwingUpParams(max_steps=160)
# Wide start-state noise: episodes of one genome end at many different steps.
NOISY_ENV = SwingUpParams(max_steps=160, reset_noise=1.0)
CHAMPION = Path(__file__).resolve().parent.parent / "artifacts" / "reference_champion.json"


def staggered_population(arch, rng, chunks=1):
    """``chunks`` staggered chunks of PRODUCT_ROWS candidates, then 40 more.

    The first chunk is one zero genome, whose cart never leaves the rail,
    and 127 candidates whose output unit is pushed off centre by a bias of
    0.5 to 2.0 and only weakly coupled to the hidden layers, so they run off
    the rail at staggered steps and leave the zero genome as the last live
    row. Further chunks are drawn the same way with biases of 0.5 to 1.5 and
    no zero genome, so their last episodes end well before the first
    chunk's. The last 40 candidates are plain random ones.
    """
    dim = count_parameters(arch)
    n = network.PRODUCT_ROWS
    sign = np.where(np.arange(n) % 2, 1, -1)
    parts = []
    for c in range(chunks):
        part = rng.normal(0, 1, (n, dim))
        bias = np.linspace(0.5, 2.0 if c == 0 else 1.5, n) * sign
        if arch.neuron_mode is NeuronMode.RECURRENT:
            part[:, -6:-4] *= 0.02  # input and state coefficients of the output row
            part[:, -4] = bias
        elif arch.neuron_mode is NeuronMode.SIMPLE:
            part[:, -2] *= 0.02
            part[:, -1] = bias
        else:
            part[:, -65:-1] *= 0.02  # output weights, then the output bias
            part[:, -1] = bias
        parts.append(part)
    parts[0][0] = 0.0
    return np.concatenate(parts + [rng.normal(0, 1, (40, dim))])


@pytest.mark.parametrize("mode", list(NeuronMode))
def test_population_fitness_bitwise(mode):
    assert network.PRODUCT_ROWS == 128
    arch = Architecture(SIZES, mode, weight_seed=1)
    genomes = staggered_population(arch, np.random.default_rng(0))
    seeds = [3, 4]
    want, lengths = oracle.population_fitness(arch, ENV, genomes, seeds)
    for ep_len in lengths[: len(seeds)]:  # both episodes of the first chunk
        assert np.count_nonzero(ep_len == ep_len.max()) == 1  # down to one live row
        assert ep_len.max() - np.sort(ep_len)[-2] >= 10
        assert len(np.unique(ep_len)) >= 20
    got = evaluate_population(arch, ENV, genomes, seeds)
    assert np.array_equal(got, want)


def live_counts(ep_len, steps):
    """Live rows of one chunk at each step 1 .. steps."""
    return np.count_nonzero(ep_len[:, None] >= np.arange(1, steps + 1), axis=0)


@pytest.mark.parametrize("mode", list(NeuronMode))
def test_three_chunk_population_bitwise(mode):
    # All three chunks are stepped together and the weight products pack
    # live rows of every chunk into shared pieces, yet every row must still
    # round as in a product of PRODUCT_ROWS rows.
    arch = Architecture(SIZES, mode, weight_seed=1)
    genomes = staggered_population(arch, np.random.default_rng(0), chunks=2)
    assert genomes.shape[0] == 2 * network.PRODUCT_ROWS + 40
    seeds = [3, 4]
    want, lengths = oracle.population_fitness(arch, ENV, genomes, seeds)
    for s in range(len(seeds)):
        first, second = lengths[s], lengths[2 + s]
        assert second.max() + 20 <= first.max()  # the chunks end at different steps
        assert len(np.unique(second)) >= 20
        a, b = live_counts(first, ENV.max_steps), live_counts(second, ENV.max_steps)
        # Steps where a piece of 64 rows must hold rows of both full chunks.
        assert np.count_nonzero((a % 64 > 0) & (b > 0)) >= 20
    got = evaluate_population(arch, ENV, genomes, seeds)
    assert np.array_equal(got, want)


def test_population_is_its_chunks_one_at_a_time():
    arch = Architecture(SIZES, NeuronMode.RECURRENT, weight_seed=1)
    genomes = staggered_population(arch, np.random.default_rng(1), chunks=2)
    seeds = [5]
    whole = evaluate_population(arch, NOISY_ENV, genomes, seeds)
    size = network.PRODUCT_ROWS
    one_by_one = [
        evaluate_population(arch, NOISY_ENV, genomes[i : i + size], seeds)
        for i in range(0, genomes.shape[0], size)
    ]
    assert np.array_equal(whole, np.concatenate(one_by_one))


@pytest.mark.parametrize("mode", list(NeuronMode))
def test_evaluate_bitwise(mode):
    arch = Architecture(SIZES, mode, weight_seed=1)
    genome = np.random.default_rng(1).normal(0, 1, count_parameters(arch))
    want, lengths = oracle.evaluation_scores(genome, arch, NOISY_ENV, 40, 11)
    assert len(np.unique(lengths[0])) >= 10
    report = evaluate(genome, arch, NOISY_ENV, 40, 11)
    assert np.array_equal(report.scores, want)


def test_evaluate_all_live_champion_bitwise():
    # Every episode of the reference champion runs to max_steps: the path
    # where no row ever leaves.
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams(max_steps=300)
    want, lengths = oracle.evaluation_scores(genome, arch, env, 12, 5)
    assert np.all(lengths[0] == env.max_steps)
    report = evaluate(genome, arch, env, 12, 5)
    assert np.array_equal(report.scores, want)


def test_episode_score_is_independent_of_its_batch():
    # The reference champion's seed-17 episode once scored 930.5448,
    # 930.6186 and 930.4742 in a 1-, 3- and 100-episode eval, because each
    # batch size rounded the weight products differently. It must score the
    # same at any row of any batch: row 0 of 1, 3 and 100 episodes, row 2 of
    # 3, row 17 of 40, 65, 100 and 127, and row 10 of 64. Each batch's own
    # row count runs in place or padded, as its probe decides.
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams()
    runs = ((1, 17), (3, 17), (100, 17), (3, 15), (100, 0),
            (40, 0), (64, 7), (65, 0), (127, 0))
    scores = {(n, base): evaluate(genome, arch, env, n, base).scores[17 - base]
              for n, base in runs}
    total, trajectory = 0.0, []
    evaluate(genome, arch, env, 1, 17, trajectory=trajectory)
    for row in trajectory:
        total += row[-1]
    assert scores == dict.fromkeys(scores, total)
