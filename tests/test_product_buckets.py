"""Live-row weight products: the bucket table and its fallback.

``BatchedPolicy`` multiplies only the live rows, in the smallest bucket that
a probe in this process showed to give the rows of a
``network.PRODUCT_ROWS``-row product bitwise. These tests check the buckets
and the prefix check of large all-live batches on data the probes never
saw, and that a BLAS where no bucket or prefix qualifies still reproduces
the oracle.
"""

import numpy as np
import pytest

import rollout_oracle as oracle
from evounits import network
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate, evaluate_population
from evounits.network import bucket_table, sample_weights
from evounits.neural_unit import NeuronMode
from test_rollout_golden import CHAMPION, ENV, SIZES, staggered_population

ARCH = Architecture(SIZES, NeuronMode.RECURRENT, weight_seed=1)


@pytest.fixture
def fresh_buckets(monkeypatch):
    """Empty probe caches, so each test probes for itself."""
    monkeypatch.setattr(network, "_BUCKETS", {})
    monkeypatch.setattr(network, "_PREFIXES", {})


@pytest.mark.parametrize("batch", [128, 40])
def test_selected_buckets_give_full_batch_rows(fresh_buckets, monkeypatch, batch):
    monkeypatch.setattr(network, "PRODUCT_ROWS", batch)
    rng = np.random.default_rng(network.PROBE_SEED + 1)
    for w in sample_weights(ARCH):
        fan_out, fan_in = w.shape
        table = bucket_table(fan_in, fan_out)
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
    # Each 128-row block, the last one of 40 rows included, runs at 128 rows
    # with its live rows in place, and so does a small all-live batch.
    monkeypatch.setattr(network, "_probe_buckets", lambda *shape: [])
    genomes = staggered_population(ARCH, np.random.default_rng(0))
    seeds = [3]
    want, _ = oracle.population_fitness(ARCH, ENV, genomes, seeds)
    got = evaluate_population(ARCH, ENV, genomes, seeds)
    assert np.array_equal(got, want)
    want, _ = oracle.evaluation_scores(genomes[-1], ARCH, ENV, 3, 7)
    assert evaluate(genomes[-1], ARCH, ENV, 3, 7).scores == want
    assert sorted(network._BUCKETS) == [(5, 128), (64, 1), (128, 64)]
    for table in network._BUCKETS.values():
        assert table == [128] * 129


def test_probe_of_a_two_row_chunk(fresh_buckets, monkeypatch):
    # A probe that drew every trial from one fixed matrix reused its two rows
    # at batch 2 and accepted a 1-row bucket for the 4 -> 1 product, though
    # 1-row and 2-row products round about half of all rows differently.
    # With 2-row products as the rule, candidates then missed the oracle.
    monkeypatch.setattr(network, "PRODUCT_ROWS", 2)
    arch = Architecture((5, 8, 4, 1), NeuronMode.RECURRENT, weight_seed=1)
    genomes = np.random.default_rng(10).normal(0, 1, (10, count_parameters(arch)))
    env = SwingUpParams(max_steps=200, reset_noise=1.0)
    want, _ = oracle.population_fitness(arch, env, genomes, [3, 4])
    got = evaluate_population(arch, env, genomes, [3, 4])
    assert (4, 1) in network._BUCKETS
    assert np.array_equal(got, want)


def test_verified_prefixes_give_full_batch_rows(fresh_buckets):
    rng = np.random.default_rng(network.PROBE_SEED + 1)
    for w in sample_weights(ARCH):
        fan_out, fan_in = w.shape
        for m in (65, 100, 127):
            if not network.prefix_verified(fan_in, fan_out, m):
                continue
            for _ in range(8):
                a = rng.normal(size=(network.PRODUCT_ROWS, fan_in))
                assert np.array_equal(a[:m] @ w.T, (a @ w.T)[:m]), (w.shape, m)


def test_unverified_prefix_pads_all_live_batch(fresh_buckets, monkeypatch):
    # Where an m-row product may differ from the first m rows of a 128-row
    # one, the all-live batch runs padded to 128 rows and still matches.
    monkeypatch.setattr(network, "prefix_verified", lambda *key: False)
    arch, genome, _ = network.load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    want, lengths = oracle.evaluation_scores(genome, arch, env, 100, 5)
    assert np.all(lengths[0] == env.max_steps)
    assert evaluate(genome, arch, env, 100, 5).scores == want


def test_all_live_rollout_never_probes(fresh_buckets):
    # An all-live batch of more than PRODUCT_ROWS // 2 rows runs in place,
    # checking at most its prefix, never the buckets.
    arch, genome, _ = network.load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    for n in (65, 128):
        report = evaluate(genome, arch, env, n, 5)
        assert len(report.scores) == n
    assert network._BUCKETS == {}
    assert sorted(network._PREFIXES) == [(5, 128, 65), (64, 1, 65), (128, 64, 65)]
