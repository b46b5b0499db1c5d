"""Frozen-weight products as whole 128-row slices, and their fallback.

``BatchedPolicy`` multiplies a layer plane's rows where they are, as whole
``network.PRODUCT_ROWS``-row slices, the plane's rows past the live ones
filling the last. Once rows have ended, live rows sit at other places than
their own; that keeps their bits where a check in this process found the
shape's rows stable (``network.rows_stable``). Where it does not, each
128-row block of the batch runs with its live rows at their own places,
and a worker's split places its rows by their population index.
These tests check the rule against the full-batch oracle, the check's
promise on data it never saw, and the fallback, in one process and in two.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rollout_oracle as oracle
from evounits import network
from evounits.architecture import Architecture, count_parameters, sample_weights
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate, evaluate_population
from evounits.neural_unit import NeuronMode
from evounits.rundir import load_champion
from test_rollout_golden import CHAMPION, ENV, NOISY_ENV, SIZES, staggered_population

ARCH = Architecture(SIZES, NeuronMode.RECURRENT, weight_seed=1)

# Prints the core name of the OpenBLAS bundled with numpy.
CORENAME = """
import ctypes, glob
from pathlib import Path
import numpy as np
from evounits import network

def openblas_symbol(name):
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None

corename = openblas_symbol("get_corename")
if corename is not None:
    corename.argtypes, corename.restype = [], ctypes.c_char_p
print(corename().decode() if corename is not None else "unknown")
"""

# Then the row check of the 128 -> 64 shape in float32 and in float64.
PROBE_BY_DTYPE = CORENAME + """
print(network.rows_stable(128, 64, np.float32), network.rows_stable(128, 64, np.float64))
"""

# Then, for a float32 policy: the row check of the 128 -> 64 shape, the
# split of 128 perturbed reference-champion candidates between 2 workers,
# and whether their pooled fitness equals the 1-worker one bitwise.
SPLIT_AT_FLOAT32 = CORENAME + f"""
from evounits.cartpole import SwingUpParams
from evounits.harness import evaluate_population
from evounits.rundir import load_champion

network.POLICY_DTYPE = np.float32
arch, champion, _ = load_champion({str(CHAMPION)!r})
genomes = champion + np.random.default_rng(0).normal(0, 0.05, (128, champion.size))
env = SwingUpParams(max_steps=160, reset_noise=1.0)
serial = evaluate_population(arch, env, genomes, [3], workers=1)
pooled = evaluate_population(arch, env, genomes, [3], workers=2)
print(network.rows_stable(128, 64, np.float32))
print(network.worker_splits(arch, 128, 2))
print(np.array_equal(pooled, serial))
"""


@pytest.fixture
def checks(monkeypatch):
    """The shapes of every rows_stable call, each answered from a fresh
    cache, so each test checks for itself; every call checks the policy's
    own dtype."""
    calls = []
    fresh = functools.cache(network.rows_stable.__wrapped__)

    def logged(fan_in, fan_out, dtype):
        assert dtype is network.POLICY_DTYPE
        calls.append((fan_in, fan_out))
        return fresh(fan_in, fan_out, dtype)

    monkeypatch.setattr(network, "rows_stable", logged)
    return calls


def test_stable_rows_keep_their_bits_at_any_place(checks):
    # Any m rows of a 128-row matrix, copied in order to the top of a plane
    # whose rows below hold stale values, give their own rows of the
    # matrix's product, as a leftover slice of live rows does.
    rng = np.random.default_rng(network.PROBE_SEED + 1)
    rows, dtype = network.PRODUCT_ROWS, network.POLICY_DTYPE
    for w in sample_weights(ARCH):
        fan_out, fan_in = w.shape
        if not network.rows_stable(fan_in, fan_out, dtype):
            continue
        w = w.astype(dtype)
        plane = rng.normal(size=(rows, fan_in)).astype(dtype)
        for m in (1, 2, 65, 100, 127):
            for _ in range(4):
                a = rng.normal(size=(rows, fan_in)).astype(dtype)
                full = a @ w.T
                live = np.sort(rng.choice(rows, m, replace=False))
                plane[:m] = a[live]
                assert np.array_equal((plane @ w.T)[:m], full[live]), (w.shape, m)


def test_unstable_rows_run_in_128_row_blocks(monkeypatch):
    # Each 128-row block, the last one of 40 rows included, runs at 128 rows
    # with its live rows in place, and so does a small eval batch.
    monkeypatch.setattr(network, "rows_stable", lambda *shape: False)
    genomes = staggered_population(ARCH, np.random.default_rng(0))
    seeds = [3]
    want, _ = oracle.population_fitness(ARCH, ENV, genomes, seeds)
    got = evaluate_population(ARCH, ENV, genomes, seeds)
    assert np.array_equal(got, want)
    want, _ = oracle.evaluation_scores(genomes[-1], ARCH, ENV, 3, 7)
    assert evaluate(genomes[-1], ARCH, ENV, 3, 7).scores == want


def test_two_row_products(checks, monkeypatch):
    # With 2-row products as the rule, a 10-row batch runs as five 2-row
    # slices; a check that reused one fixed matrix once let the 4 -> 1
    # product run at one row, and candidates then missed the oracle.
    monkeypatch.setattr(network, "PRODUCT_ROWS", 2)
    arch = Architecture((5, 8, 4, 1), NeuronMode.RECURRENT, weight_seed=1)
    genomes = np.random.default_rng(10).normal(0, 1, (10, count_parameters(arch)))
    env = SwingUpParams(max_steps=200, reset_noise=1.0)
    want, _ = oracle.population_fitness(arch, env, genomes, [3, 4])
    got = evaluate_population(arch, env, genomes, [3, 4])
    assert (4, 1) in checks
    assert np.array_equal(got, want)


def test_all_live_batch_of_100_runs_at_128_rows(checks):
    # An all-live batch of 100 episodes runs as one 128-row slice whose last
    # 28 rows stay zero, and checks nothing.
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    want, lengths = oracle.evaluation_scores(genome, arch, env, 100, 5)
    assert np.all(lengths[0] == env.max_steps)
    assert evaluate(genome, arch, env, 100, 5).scores == want
    assert checks == []


def test_all_live_rollout_never_probes(checks):
    # An all-live batch that fills whole PRODUCT_ROWS-row slices runs them
    # in place without a check.
    arch, genome, _ = load_champion(CHAMPION)
    env = SwingUpParams(max_steps=100)
    for n in (128, 256):
        report = evaluate(genome, arch, env, n, 5)
        assert len(report.scores) == n
    assert checks == []


def test_batch_of_65_with_ended_rows(checks):
    # A 65-row batch whose episodes end at staggered steps runs its live
    # rows at their new places in one 128-row slice, the plane's stale rows
    # filling the rest, and checks each product's shape once it has to.
    genomes = staggered_population(ARCH, np.random.default_rng(1))[:65]
    want, lengths = oracle.population_fitness(ARCH, NOISY_ENV, genomes, [3])
    assert len(np.unique(lengths[0])) > 10
    assert np.array_equal(evaluate_population(ARCH, NOISY_ENV, genomes, [3]), want)
    assert set(checks) == {(5, 128), (128, 64), (64, 1)}


def on_haswell(script):
    """The lines ``script`` prints after the core name, run on the Haswell
    kernel at one thread; skips where OpenBLAS runs another kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(network.__file__).resolve().parents[1]))
    lines = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True, text=True).stdout.split("\n")
    if lines[0].strip() != "Haswell":
        pytest.skip(f"OpenBLAS runs the {lines[0].strip()} kernel, not Haswell")
    return lines[1:]


def test_check_runs_in_the_asked_dtype():
    # On the Haswell kernel at one thread, the 128 -> 64 shape keeps its
    # rows' bits at float64 but not at float32, so the check's answer is
    # only good for the dtype it multiplied in.
    assert on_haswell(PROBE_BY_DTYPE)[0].split() == ["False", "True"]


def test_unstable_rows_split_between_workers():
    # A float32 policy on the Haswell kernel fails the row check for
    # 128 -> 64, yet 2 workers take half of a 128-candidate generation
    # each, the second half's rows at their own batch indices in the
    # block path, and the fitness is the 1-worker one.
    assert on_haswell(SPLIT_AT_FLOAT32)[:3] == ["False", "[0, 64, 128]", "True"]
