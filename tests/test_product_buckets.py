"""Live-row weight products: the bucket table and its fallback.

``BatchedPolicy`` multiplies only the live rows, in the smallest bucket that
a probe in this process showed to give the rows of a
``network.PRODUCT_ROWS``-row product bitwise. The probe tries the powers
of two below PRODUCT_ROWS and the batch's own row count. These tests check
the buckets, and the batch's own row count run in place, on data the probes
never saw, and that a BLAS where no bucket qualifies still reproduces the
oracle.
"""

import numpy as np
import pytest

import rollout_oracle as oracle
from evounits import network
from evounits.architecture import Architecture, count_parameters, sample_weights
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate, evaluate_population
from evounits.network import bucket_table
from evounits.neural_unit import NeuronMode
from evounits.rundir import load_champion
from test_rollout_golden import CHAMPION, ENV, SIZES, staggered_population

ARCH = Architecture(SIZES, NeuronMode.RECURRENT, weight_seed=1)


@pytest.fixture
def fresh_buckets(monkeypatch):
    """An empty probe cache, so each test probes for itself."""
    monkeypatch.setattr(network, "_BUCKETS", {})


@pytest.mark.parametrize("batch", [128, 40])
def test_selected_buckets_give_full_batch_rows(fresh_buckets, monkeypatch, batch):
    monkeypatch.setattr(network, "PRODUCT_ROWS", batch)
    rng = np.random.default_rng(network.PROBE_SEED + 1)
    for w in sample_weights(ARCH):
        fan_out, fan_in = w.shape
        table = bucket_table(fan_in, fan_out, batch)
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
    # The 296-row population and the 3-episode eval each have a table.
    assert sorted(network._BUCKETS) == [(5, 128, 3), (5, 128, 128), (64, 1, 3),
                                        (64, 1, 128), (128, 64, 3), (128, 64, 128)]
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
    assert (4, 1, 2) in network._BUCKETS
    assert np.array_equal(got, want)


def test_verified_prefixes_give_full_batch_rows(fresh_buckets):
    # A batch of m rows whose own row count the probe verified runs in
    # place: its product gives the first m rows of a 128-row product, and
    # any m rows copied to the top of a buffer give their own rows.
    rng = np.random.default_rng(network.PROBE_SEED + 1)
    for w in sample_weights(ARCH):
        fan_out, fan_in = w.shape
        for m in (65, 100, 127):
            if bucket_table(fan_in, fan_out, m)[m] != m:
                continue
            buf = rng.normal(size=(network.PRODUCT_ROWS, fan_in))
            for _ in range(8):
                a = rng.normal(size=(network.PRODUCT_ROWS, fan_in))
                full = a @ w.T
                assert np.array_equal(a[:m] @ w.T, full[:m]), (w.shape, m)
                rows = np.sort(rng.choice(network.PRODUCT_ROWS, m, replace=False))
                buf[:m] = a[rows]
                assert np.array_equal(buf[:m] @ w.T, full[rows]), (w.shape, m)


def test_unverified_prefix_pads_all_live_batch(fresh_buckets, monkeypatch):
    # Where the probe rejects the batch's own row count, an m-row product
    # may differ from the first m rows of a 128-row one: the all-live batch
    # runs padded to 128 rows and still matches.
    probe = network._probe_buckets
    monkeypatch.setattr(network, "_probe_buckets", lambda fan_in, fan_out, sizes:
                        probe(fan_in, fan_out, [b for b in sizes if b != 100]))
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    want, lengths = oracle.evaluation_scores(genome, arch, env, 100, 5)
    assert np.all(lengths[0] == env.max_steps)
    assert evaluate(genome, arch, env, 100, 5).scores == want
    assert sorted(network._BUCKETS) == [(5, 128, 100), (64, 1, 100), (128, 64, 100)]
    assert all(table[100] == 128 for table in network._BUCKETS.values())


def test_all_live_rollout_never_probes(fresh_buckets):
    # An all-live batch that fills whole PRODUCT_ROWS-row slices runs them
    # in place without a table.
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    for n in (128, 256):
        report = evaluate(genome, arch, env, n, 5)
        assert len(report.scores) == n
    assert network._BUCKETS == {}


def test_batch_of_65_probes_one_table_per_shape(fresh_buckets, monkeypatch):
    # Any other batch probes its table once per weight shape, keyed with
    # its own row count where that count is a size of its own, and its
    # policy looks each table up once.
    lookups = []
    table = network.bucket_table
    monkeypatch.setattr(network, "bucket_table",
                        lambda *key: lookups.append(key) or table(*key))
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    want, _ = oracle.evaluation_scores(genome, arch, env, 65, 5)
    assert evaluate(genome, arch, env, 65, 5).scores == want
    assert sorted(network._BUCKETS) == [(5, 128, 65), (64, 1, 65), (128, 64, 65)]
    assert sorted(lookups) == sorted(network._BUCKETS)
