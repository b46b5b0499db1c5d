"""The README's reproducibility contract as properties over random shapes,
batches and episode lengths.

A candidate's fitness depends on its genome and the episode seeds alone
where the probe verifies a bucket for every frozen-weight product; where it
does not, on its index modulo ``network.PRODUCT_ROWS`` too. Either way it
is bitwise independent of the worker count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evounits import network
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate_population
from evounits.neural_unit import NeuronMode

ROWS = network.PRODUCT_ROWS


@st.composite
def populations(draw):
    """(arch, env, genomes, episode seeds): a random 5-h1-h2-1 unit-mode
    network, 1 to 300 random candidates, and episodes of at most 40 steps
    on a rail short enough that they end at scattered steps."""
    mode = draw(st.sampled_from([NeuronMode.RECURRENT, NeuronMode.SIMPLE]))
    sizes = (5, draw(st.integers(1, 40)), draw(st.integers(1, 40)), 1)
    arch = Architecture(sizes, mode, weight_seed=draw(st.integers(0, 2**32)))
    env = SwingUpParams(max_steps=draw(st.integers(2, 40)),
                        x_threshold=draw(st.floats(0.05, 2.4)), reset_noise=0.5)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    genomes = rng.normal(0, 1, (draw(st.integers(1, 300)), count_parameters(arch)))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=2))
    return arch, env, genomes, seeds


def verified(arch):
    """Whether the probe verifies a bucket for every product of ``arch``."""
    shapes = zip(arch.layer_sizes, arch.layer_sizes[1:])
    return all(network.bucket_table(*shape, ROWS)[1] < ROWS for shape in shapes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=populations(), picks=st.lists(st.integers(0, 299), min_size=5, max_size=5))
def test_fitness_is_the_rows_fitness_alone(case, picks):
    arch, env, genomes, seeds = case
    fitness = evaluate_population(arch, env, genomes, seeds)
    strong = verified(arch)
    for i in (p % len(genomes) for p in picks):
        # Alone, or where the probe verifies no bucket, last of a batch
        # that puts it at the same index modulo ROWS.
        batch = genomes[i : i + 1] if strong else genomes[i - i % ROWS : i + 1]
        assert evaluate_population(arch, env, batch, seeds)[-1] == fitness[i]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=populations())
def test_fitness_is_independent_of_the_worker_count(case):
    arch, env, genomes, seeds = case
    serial = evaluate_population(arch, env, genomes, seeds, workers=1)
    assert np.array_equal(evaluate_population(arch, env, genomes, seeds, workers=2), serial)
