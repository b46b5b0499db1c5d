"""Live-row weight products: the bucket table and its fallback.

``BatchedPolicy`` multiplies only the live rows, in the smallest bucket that
a probe in this process showed to give the rows of a full-batch product
bitwise. These tests check the buckets on data the probe never saw, and
that a BLAS where no bucket qualifies still reproduces the oracle.
"""

import numpy as np
import pytest

import rollout_oracle as oracle
from evounits import harness, network
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate, evaluate_population
from evounits.network import bucket_table, sample_weights
from evounits.neural_unit import NeuronMode
from test_rollout_golden import CHAMPION, ENV, SIZES, staggered_population

ARCH = Architecture(SIZES, NeuronMode.RECURRENT, weight_seed=1)


@pytest.fixture
def fresh_buckets(monkeypatch):
    """An empty bucket cache, so each test probes for itself."""
    monkeypatch.setattr(network, "_BUCKETS", {})


@pytest.mark.parametrize("batch", [128, 40])
def test_selected_buckets_give_full_batch_rows(fresh_buckets, batch):
    rng = np.random.default_rng(network.PROBE_SEED + 1)
    for w in sample_weights(ARCH):
        fan_out, fan_in = w.shape
        table = bucket_table(batch, fan_in, fan_out)
        assert len(table) == batch + 1 and table[batch] == batch
        assert all(m <= b <= batch for m, b in enumerate(table))
        assert table == sorted(table)
        a = rng.normal(size=(batch, fan_in))
        full = a @ w.T
        buf = rng.normal(size=(batch, fan_in))  # stale rows below the live ones
        for b in sorted(set(table) - {batch}):
            for m in (b, max(1, b // 2 + 1), 1):
                if table[m] != b:
                    continue
                for _ in range(8):
                    rows = np.sort(rng.choice(batch, m, replace=False))
                    buf[:m] = a[rows]
                    assert np.array_equal((buf[:b] @ w.T)[:m], full[rows]), (w.shape, b, m)


def test_no_bucket_means_full_batch_products(fresh_buckets, monkeypatch):
    monkeypatch.setattr(network, "_probe_buckets", lambda *shape: [])
    genomes = staggered_population(ARCH, np.random.default_rng(0))
    seeds = [3]
    want, _ = oracle.population_fitness(ARCH, ENV, genomes, seeds, harness.CHUNK_SIZE)
    got = evaluate_population(ARCH, ENV, genomes, seeds)
    assert np.array_equal(got, want)
    # Both chunk sizes ran down to fewer live rows and found no bucket.
    assert sorted({key[0] for key in network._BUCKETS}) == [40, 128]
    for (batch, _, _), table in network._BUCKETS.items():
        assert table == [batch] * (batch + 1)


def test_probe_of_a_two_row_chunk(fresh_buckets, monkeypatch):
    # A probe that drew every trial from one fixed matrix reused its two rows
    # at batch 2 and accepted a 1-row bucket for the 4 -> 1 product, though
    # 1-row and 2-row products round about half of all rows differently.
    # Candidate 9, in the 2-row last chunk, then missed the oracle.
    monkeypatch.setattr(harness, "CHUNK_SIZE", 4)
    arch = Architecture((5, 8, 4, 1), NeuronMode.RECURRENT, weight_seed=1)
    genomes = np.random.default_rng(10).normal(0, 1, (10, count_parameters(arch)))
    env = SwingUpParams(max_steps=200, reset_noise=1.0)
    want, _ = oracle.population_fitness(arch, env, genomes, [3, 4], harness.CHUNK_SIZE)
    got = evaluate_population(arch, env, genomes, [3, 4])
    assert (2, 4, 1) in network._BUCKETS  # the 2-row chunk used a table of its own
    assert np.array_equal(got, want)


def test_all_live_rollout_never_probes(fresh_buckets):
    arch, genome, _ = network.load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    report = evaluate(genome, arch, env, 6, 5)
    assert len(report.scores) == 6
    assert network._BUCKETS == {}
