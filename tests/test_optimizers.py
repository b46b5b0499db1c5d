import faulthandler
import math
import multiprocessing
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from evounits import harness, optimizers, rundir
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.config import from_dict
from evounits.errors import CheckpointError, ConfigError, DomainError
from evounits.harness import PopulationEvaluator, evaluate, evaluate_population, probe_layer
from evounits.neural_unit import NeuronMode
from evounits.optimizers import (
    UPDATE_ROWS,
    CmaEs,
    GeneticAlgorithm,
    OpenEs,
    PipelineConfig,
    PipelineRunner,
    average_ranks,
)


def sphere(x):
    return -np.sum(np.square(x), axis=-1)


def experiment(layer_sizes, **optimizer):
    """A recurrent-unit experiment, 6 parameters per neuron of ``layer_sizes``."""
    return from_dict({"preset": "cartpole-recurrent", "optimizer": optimizer,
                      "arch": {"layer_sizes": layer_sizes}, "seeds": {"master_seed": 0}})


def checkpoint_round_trip(tmp_path, cfg, runner):
    """``runner`` written as a run checkpoint of ``cfg`` and read back."""
    path = tmp_path / "runner.npz"
    rundir.save_runner_checkpoint(path, cfg, tmp_path, runner)
    return rundir.load_runner_checkpoint(path)["runner"]


def reference_ask(es):
    """``CmaEs.ask`` as the textbook expression, computed in line; returns
    the population and the (y, basis, scale) that :func:`reference_tell`
    reads."""
    basis, scale = es._update_eigensystem()
    z = es.rng.standard_normal((es.popsize, es.dim))
    y = z @ (basis * scale).T
    return es.mean + es.sigma * y, (y, basis, scale)


def reference_tell(es, asked, fitnesses):
    """``CmaEs.tell`` as the textbook expression, each n×n term a fresh
    array, C^-1/2 computed in line; returns h_sigma."""
    f = np.asarray(fitnesses, dtype=np.float64)
    y, basis, scale = asked
    n = es.dim

    order = np.argsort(-f, kind="stable")
    y_sel = y[order[: es.mu]]
    y_w = es.weights @ y_sel
    es.mean = es.mean + es.sigma * y_w

    inv_sqrt = (basis / scale) @ basis.T
    es.p_sigma = (1 - es.cs) * es.p_sigma + math.sqrt(
        es.cs * (2 - es.cs) * es.mueff
    ) * (inv_sqrt @ y_w)
    norm_ps = np.linalg.norm(es.p_sigma)
    h_sigma = norm_ps / math.sqrt(
        1 - (1 - es.cs) ** (2 * (es.generation + 1))
    ) / es.chi_n < 1.4 + 2 / (n + 1)
    es.p_c = (1 - es.cc) * es.p_c + h_sigma * math.sqrt(
        es.cc * (2 - es.cc) * es.mueff
    ) * y_w

    rank_mu = (y_sel.T * es.weights) @ y_sel
    delta_h = (1 - h_sigma) * es.cc * (2 - es.cc)
    es.cov = (
        (1 - es.c1 - es.cmu) * es.cov
        + es.c1 * (np.outer(es.p_c, es.p_c) + delta_h * es.cov)
        + es.cmu * rank_mu
    )
    es.cov = (es.cov + es.cov.T) / 2.0
    es.sigma *= math.exp((es.cs / es.damps) * (norm_ps / es.chi_n - 1))
    es.generation += 1
    return h_sigma


def assert_tell_bitwise_as_reference():
    """Over 25 generations at n = 100, ``ask`` and ``tell`` equal
    :func:`reference_ask` and :func:`reference_tell` bitwise. The linear
    fitness drives |p_sigma| up until h_sigma turns False, so both branches
    of the rank-one update are covered."""
    es = CmaEs(np.zeros(100), sigma0=0.5, seed=3)
    ref = CmaEs(np.zeros(100), sigma0=0.5, seed=3)
    stalled = []
    for _ in range(25):
        x = es.ask()
        x_ref, asked = reference_ask(ref)
        assert np.array_equal(x, x_ref)
        es.tell(x[:, 0])
        stalled.append(not reference_tell(ref, asked, x[:, 0]))
        for name in ("cov", "mean", "p_sigma", "p_c"):
            assert np.array_equal(getattr(es, name), getattr(ref, name)), name
        assert es.sigma == ref.sigma
        assert np.array_equal(es.cov, es.cov.T)
    assert any(stalled) and not all(stalled)


# Set by a slowed C^-1/2 product when it is done; pool workers fork after it.
PRODUCTS_DONE = []
_MEAN_SCORES = harness._mean_scores


def _scores_forked_after_the_product(*args):
    """``harness._mean_scores`` in a pool worker, checking that the worker
    was forked after the product was done."""
    if not PRODUCTS_DONE:
        raise AssertionError("pool worker forked while the C^-1/2 product ran")
    return _MEAN_SCORES(*args)


def reference_ga(x0, popsize, elite_frac, seed, fitness, generations):
    """The populations asked of a GA that keeps its whole population and
    breeds it in ``tell``, each generation's draws in one piece."""
    n_elite = max(1, int(round(popsize * elite_frac)))
    rng = np.random.default_rng(seed)
    pop = np.tile(np.asarray(x0, dtype=np.float64), (popsize, 1))
    pop[1:] += rng.normal(0.0, 1.0, size=(popsize - 1, len(x0)))
    asked = []
    for _ in range(generations):
        asked.append(pop.copy())
        elites = pop[np.argsort(-fitness(pop), kind="stable")[:n_elite]]
        children = elites[rng.integers(0, n_elite, size=popsize - n_elite)]
        children += rng.normal(0.0, 1.0, size=children.shape)
        pop = np.vstack([elites, children])
    return asked


def tied_sphere(x):
    """Sphere fitness rounded to a few values, so selection breaks ties."""
    return np.round(sphere(x) / 10.0)


_ARCH = Architecture((5, 4, 1), NeuronMode.RECURRENT)
_GENOME = np.zeros(count_parameters(_ARCH))
_evaluator = partial(PopulationEvaluator, _ARCH, SwingUpParams())
_evaluate = partial(evaluate, _GENOME, _ARCH, SwingUpParams(max_steps=10))
_evaluate_population = partial(evaluate_population, _ARCH, SwingUpParams(max_steps=10),
                               _GENOME, [0])
NON_INTEGER_ARGS = [
    (partial(GeneticAlgorithm, np.zeros(3)), "popsize", 8.7),
    (partial(GeneticAlgorithm, np.zeros(3)), "popsize", True),
    (partial(CmaEs, np.zeros(3)), "popsize", 5.9),
    (partial(OpenEs, np.zeros(3)), "popsize", 8.0),
    (_evaluator, "episodes_per_candidate", 2.5),
    (_evaluator, "train_seed_base", 1.9),
    (_evaluator, "workers", 1.5),
    (_evaluate_population, "workers", 2.5),
    (partial(_evaluate, base_seed=1), "n_episodes", 2.0),
    (partial(_evaluate, 2), "base_seed", 1.5),
    (partial(probe_layer, _GENOME, _ARCH), "layer", 1.0),
    (partial(probe_layer, _GENOME, _ARCH, layer=1), "n_points", 10.5),
]


@pytest.mark.parametrize("make, arg, value", NON_INTEGER_ARGS,
                         ids=[f"{m.func.__name__}-{a}-{v}" for m, a, v in NON_INTEGER_ARGS])
def test_non_integer_argument_named(make, arg, value):
    # Rejected, not truncated; numpy integers are integers.
    with pytest.raises(ConfigError, match=f"^{arg}: must be an integer"):
        make(**{arg: value})
    make(**{arg: np.int64(2)})


OUT_OF_RANGE_ARGS = [
    (_evaluator, "episodes_per_candidate", 0),
    (partial(GeneticAlgorithm, np.zeros(3)), "elite_frac", 1.0),
    (partial(CmaEs, np.zeros(3)), "sigma0", 0),
    (partial(PipelineRunner, PipelineConfig(total_generations=2, ga_generations=1), 3), "x0",
     np.zeros(4)),
    # Each of these was taken: NaN or 0 as a step size, NaN as a rate or an
    # elite share, a negative mutation scale, one worker for none or for -3,
    # and a population too small to rank or to hold offspring.
    (partial(CmaEs, np.zeros(3)), "sigma0", float("nan")),
    (_evaluator, "workers", 0),
    (_evaluator, "workers", -3),
    (_evaluate_population, "workers", 0),
    (partial(GeneticAlgorithm, np.zeros(3)), "popsize", 1),
    (partial(OpenEs, np.zeros(3)), "popsize", 0),
    (partial(GeneticAlgorithm, np.zeros(3)), "elite_frac", float("nan")),
    (partial(GeneticAlgorithm, np.zeros(3)), "mutation_std", -1.0),
    (partial(OpenEs, np.zeros(3)), "sigma", 0.0),
    (partial(OpenEs, np.zeros(3)), "lr", float("nan")),
]


def _ids(table):
    """``function-argument`` of each row, with ``=value`` where an earlier
    row has the same function and argument."""
    seen, ids = set(), []
    for make, arg, value in table:
        key = f"{make.func.__name__}-{arg}"
        ids.append(f"{key}={value}" if key in seen else key)
        seen.add(key)
    return ids


@pytest.mark.parametrize("make, arg, value", OUT_OF_RANGE_ARGS, ids=_ids(OUT_OF_RANGE_ARGS))
def test_out_of_range_argument_named(make, arg, value):
    with pytest.raises(ConfigError, match=f"^{arg}: "):
        make(**{arg: value})


@pytest.mark.parametrize("make", [GeneticAlgorithm, CmaEs, OpenEs])
def test_wrong_fitness_count_named(make):
    opt = make(np.zeros(3), popsize=8, seed=0)
    opt.ask()
    with pytest.raises(DomainError, match=r"^fitnesses: expected 8, got shape \(7,\)"):
        opt.tell(np.zeros(7))


class TestGeneticAlgorithm:
    def test_population_shape(self):
        ga = GeneticAlgorithm(np.zeros(7), popsize=32, seed=0)
        assert ga.ask().shape == (32, 7)

    def test_constant_landscape_keeps_best(self):
        # On ties the first candidate is the best one: the start point, which
        # also survives as the first elite.
        x0 = np.arange(5.0)
        runner = PipelineRunner(PipelineConfig(total_generations=10, ga_generations=10,
                                               ga_pop=16, seed=1), 5, x0)
        for _ in range(10):
            runner.step(lambda c, g: np.full(16, 3.0))
            assert runner.best_fitness == 3.0
            assert np.array_equal(runner.best, x0)
            assert np.array_equal(runner.optimizer.ask()[0], x0)

    def test_elites_survive_unchanged(self):
        ga = GeneticAlgorithm(np.zeros(6), popsize=16, elite_frac=0.25, seed=2)
        pop = ga.ask()
        f = sphere(pop)
        ga.tell(f)
        elites_expected = pop[np.argsort(-f, kind="stable")[:4]]
        assert np.array_equal(ga.ask()[:4], elites_expected)

    def test_best_monotone_on_deterministic_fitness(self):
        ga = GeneticAlgorithm(np.full(10, 3.0), popsize=32, seed=3)
        per_gen_best = []
        for _ in range(50):
            f = sphere(ga.ask())
            per_gen_best.append(f.max())
            ga.tell(f)
        assert np.all(np.diff(per_gen_best) >= 0)
        assert per_gen_best[-1] > per_gen_best[0]  # actually improved

    def test_same_seed_same_population_sequence(self):
        runs = []
        for _ in range(2):
            ga = GeneticAlgorithm(np.zeros(4), popsize=8, seed=9)
            seq = []
            for _ in range(5):
                pop = ga.ask()
                seq.append(pop.copy())
                ga.tell(sphere(pop))
            runs.append(seq)
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_nan_fitness_rejected(self):
        ga = GeneticAlgorithm(np.zeros(3), popsize=8, seed=0)
        ga.ask()
        with pytest.raises(DomainError):
            ga.tell([1.0, np.nan] + [0.0] * 6)

    @pytest.mark.parametrize("popsize, n_elite", [(2, 1), (512, 64), (100, 12)])
    def test_ask_bitwise_as_reference_ga(self, popsize, n_elite):
        # The hand-over's pop 2, several noise blocks, and a pop of 88 children
        # that is no multiple of the 12 elites.
        x0 = np.linspace(-1.0, 1.0, 9)
        want = reference_ga(x0, popsize, 0.125, 11, tied_sphere, 12)
        ga = GeneticAlgorithm(x0, popsize=popsize, seed=11)
        assert ga.n_elite == n_elite
        for pop in want:
            got = ga.ask()
            assert np.array_equal(got, pop)
            ga.tell(tied_sphere(got))

    def test_init_draws_nothing_and_holds_no_population(self):
        # A CMA-stage resume builds the GA stage first and throws it away.
        n = 400
        tracemalloc.start()
        try:
            ga = GeneticAlgorithm(np.zeros(n), popsize=256, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ga.n_elite * n * 8 + 64_000
        assert ga.rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    def test_tell_and_ask_hold_about_one_population(self):
        # A population and one noise block; breeding the whole population at
        # once in tell holds two populations above what the caller holds.
        popsize, n = 256, 400
        ga = GeneticAlgorithm(np.zeros(n), popsize=popsize, seed=0)
        f = sphere(ga.ask())
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            ga.tell(f)
            ga.ask()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 1.3 * popsize * n * 8

    def test_asked_population_is_read_only(self):
        ga = GeneticAlgorithm(np.zeros(3), popsize=8, seed=0)
        with pytest.raises(ValueError):
            ga.ask()[0] += 1.0

    def test_tell_before_ask_rejected(self):
        ga = GeneticAlgorithm(np.zeros(3), popsize=8, seed=0)
        with pytest.raises(DomainError):
            ga.tell(np.zeros(8))

    def test_improves_from_random_start(self):
        # Statistical: strict improvement within 50 generations on the sphere.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ga = GeneticAlgorithm(rng.normal(0, 3, 20), popsize=64, seed=seed)
            per_gen_best = []
            for _ in range(50):
                f = sphere(ga.ask())
                per_gen_best.append(f.max())
                ga.tell(f)
            assert max(per_gen_best) > per_gen_best[0]


class TestCmaEs:
    def test_ask_shape_and_sigma_positive(self):
        es = CmaEs(np.zeros(6), sigma0=0.5, popsize=12, seed=0)
        assert es.ask().shape == (12, 6)
        assert es.sigma > 0

    def test_sphere_dim10(self):
        es = CmaEs(np.ones(10), sigma0=0.5, seed=5)
        evals, best = 0, np.inf
        while evals < 20000:
            x = es.ask()
            f = sphere(x)
            es.tell(f)
            evals += len(x)
            best = min(best, -f.max())
        assert best < 1e-10

    def test_dim1_quadratic_converges_to_three(self):
        es = CmaEs(np.zeros(1), sigma0=0.5, seed=1)
        for _ in range(400):
            x = es.ask()
            es.tell(-((x[:, 0] - 3.0) ** 2))
        assert es.mean[0] == pytest.approx(3.0, abs=1e-5)

    def test_rosenbrock_dim5(self):
        def rosenbrock(x):
            return -np.sum(
                100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1 - x[:, :-1]) ** 2,
                axis=1,
            )

        es = CmaEs(np.zeros(5), sigma0=0.5, seed=3)
        evals, best = 0, -np.inf
        while evals < 100_000 and best <= -1e-6:
            x = es.ask()
            f = rosenbrock(x)
            es.tell(f)
            evals += len(x)
            best = max(best, f.max())
        assert best > -1e-6

    def test_invariances_and_state_health(self):
        # Shifting all fitnesses by a constant must not change the update.
        a = CmaEs(np.ones(8), sigma0=0.3, popsize=16, seed=7)
        b = CmaEs(np.ones(8), sigma0=0.3, popsize=16, seed=7)
        for _ in range(20):
            xa, xb = a.ask(), b.ask()
            assert np.array_equal(xa, xb)
            f = sphere(xa)
            a.tell(f)
            b.tell(f + 123.456)
            assert np.array_equal(a.mean, b.mean)
            assert a.sigma == b.sigma
            assert np.array_equal(a.cov, b.cov)
            assert np.array_equal(a.cov, a.cov.T)
            assert a.sigma > 0

    def test_eigenvalue_floor_repairs_a_singular_covariance(self, caplog, monkeypatch):
        # A rank-3 C at n = 20: its smallest eigenvalue reads -4.6e-15.
        es = CmaEs(np.zeros(20), sigma0=0.5, popsize=12, seed=0)
        eigensystems = []
        decompose = es._update_eigensystem
        monkeypatch.setattr(es, "_update_eigensystem",
                            lambda: eigensystems.append(decompose()) or eigensystems[-1])
        factor = np.random.default_rng(0).normal(size=(20, 3))
        es.cov = factor @ factor.T
        evals = np.linalg.eigh(es.cov)[0]  # as ask decomposes it
        floor = evals.max() * 1e-14 + 1e-300
        assert evals[0] < 0
        with caplog.at_level("WARNING", logger="evounits.optimizers"):
            x = es.ask()
        assert "covariance eigenvalue floor hit" in caplog.text
        # ask samples with every axis scale at least the floor's root; the
        # rebuilt C holds those eigenvalues up to eigh's rounding, so it is
        # positive definite.
        scale = eigensystems[0][1]
        assert np.all(scale >= np.sqrt(floor))
        eps = 20 * np.finfo(float).eps * evals.max()
        assert np.linalg.eigvalsh(es.cov)[0] >= floor - eps
        np.linalg.cholesky(es.cov)
        assert np.all(np.isfinite(x))
        # The rebuilt C is symmetric only to rounding; tell leaves it exactly
        # symmetric again, so the next checkpoint can save its triangle.
        es.tell(sphere(x))
        assert np.array_equal(es.cov, es.cov.T)
        # Its smallest eigenvalue sits just under the floor by rounding, so
        # each later ask repairs again; the warning is logged once.
        with caplog.at_level("WARNING", logger="evounits.optimizers"):
            for _ in range(6):
                es.tell(sphere(es.ask()))
        assert caplog.text.count("covariance eigenvalue floor hit") == 1

    def test_tell_before_ask_rejected(self):
        es = CmaEs(np.zeros(3), seed=0)
        with pytest.raises(DomainError):
            es.tell(np.zeros(es.popsize))

    def test_default_popsize_and_too_small_rejected(self):
        assert CmaEs(np.zeros(10), seed=0).popsize == 4 + int(3 * np.log(10))
        assert CmaEs(np.zeros(10), popsize=2, seed=0).popsize == 2
        for popsize in (0, 1):
            with pytest.raises(ConfigError, match="popsize"):
                CmaEs(np.zeros(10), popsize=popsize, seed=0)

    def test_checkpoint_holds_half_a_square_matrix(self, tmp_path):
        cfg = experiment([5, 44, 1], total_generations=3, ga_generations=1, ga_pop=4,
                         cmaes_pop=16)
        runner = PipelineRunner(cfg.pipeline(), 300, np.zeros(300))
        for _ in range(2):
            runner.step(_deterministic_eval)
        es = runner.optimizer
        assert es.dim == 300 and es.generation == 1
        path = tmp_path / "runner.npz"
        rundir.save_runner_checkpoint(path, cfg, tmp_path, runner)
        assert path.stat().st_size < 0.55 * es.cov.nbytes + 64_000
        assert np.array_equal(rundir.load_runner_checkpoint(path)["runner"].optimizer.cov,
                              es.cov)

    def test_asymmetric_covariance_not_saved(self, tmp_path):
        cfg = experiment([5, 1], total_generations=3, ga_generations=1, ga_pop=4)
        runner = PipelineRunner(cfg.pipeline(), 36, np.zeros(36))
        runner.step(_deterministic_eval)
        runner.optimizer.cov[0, 1] += 1e-16
        path = tmp_path / "runner.npz"
        with pytest.raises(CheckpointError, match="optimizer.cov"):
            rundir.save_runner_checkpoint(path, cfg, tmp_path, runner)
        assert list(tmp_path.iterdir()) == []

    def test_tell_bitwise_as_reference_expression(self):
        assert_tell_bitwise_as_reference()

    def test_tell_on_ragged_row_blocks_bitwise_as_reference(self, monkeypatch):
        # n = 100 in blocks of 7 rows: fourteen blocks and a 2-row tail.
        monkeypatch.setattr(optimizers, "UPDATE_ROWS", 7)
        assert_tell_bitwise_as_reference()

    def test_tell_allocates_no_square_array(self):
        # The textbook expression holds about five n×n arrays at once; tell
        # forms C's rank-one term on two blocks of UPDATE_ROWS rows and
        # reuses C^-1/2's memory for the rank-mu term, so it allocates
        # nothing n×n.
        n = 400
        es = CmaEs(np.zeros(n), sigma0=0.5, seed=0)
        f = sphere(es.ask())
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            es.tell(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= (2 * UPDATE_ROWS + 4 * es.popsize) * n * 8

    def test_ask_keeps_three_square_arrays_until_the_product_is_done(self):
        # Beside C, ask keeps the eigenbasis, the basis over the axis scales
        # and C^-1/2's output while the product runs; the scaled basis it
        # samples with is gone before it returns. Once the product is done
        # only its output is left.
        n = 400
        es = CmaEs(np.zeros(n), sigma0=0.5, seed=0)
        es.tell(sphere(es.ask()))
        square, rows = n * n * 8, 2 * es.popsize * n * 8  # y and the population
        tracemalloc.start()
        try:
            x = es.ask()
            kept, peak = tracemalloc.get_traced_memory()
            es._pending[1].result()
            done = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 3.5 * square + rows
        assert peak <= 4.5 * square + rows
        assert done <= 1.5 * square + rows
        es.tell(sphere(x))

    def test_failed_product_raises_in_tell(self, monkeypatch):
        # An operand one row short makes the product raise on its thread, so
        # C^-1/2's output is never written; tell raises that error before it
        # reads the output or changes any state.
        beside = optimizers._beside
        monkeypatch.setattr(optimizers, "_beside",
                            lambda fn, a, b, **kw: beside(fn, a, b[:-1], **kw))
        es = CmaEs(np.zeros(6), sigma0=0.5, popsize=12, seed=0)
        x = es.ask()
        state = {name: getattr(es, name).copy() for name in ("mean", "cov", "p_sigma", "p_c")}
        with pytest.raises(ValueError, match="matmul"):
            es.tell(sphere(x))
        for name, value in state.items():
            assert np.array_equal(getattr(es, name), value), name
        assert es.sigma == 0.5 and es.generation == 0
        with pytest.raises(DomainError, match="before ask"):
            es.tell(sphere(x))

    @pytest.mark.parametrize("fails", [False, True], ids=["done", "raised"])
    def test_product_thread_ends_with_its_product(self, monkeypatch, fails):
        # A thread kept past its product would hold its BLAS buffers into the
        # next eigh and be alive at every fork; each one ends once its
        # product is done, whether it returned or raised.
        threads = []

        def recorded(fn, a, b, **kw):
            threads.append(threading.current_thread())
            return fn(a, b[:-1] if fails else b, **kw)

        monkeypatch.setattr(optimizers, "_beside", partial(optimizers._beside, recorded))
        es = CmaEs(np.zeros(40), sigma0=0.5, seed=0)
        for _ in range(2):
            x = es.ask()
            if fails:
                with pytest.raises(ValueError, match="matmul"):
                    es.tell(sphere(x))
            else:
                es.tell(sphere(x))
        assert len(threads) == 2
        for thread in threads:
            assert thread.name.startswith(optimizers.PRODUCT_THREAD)
            thread.join(timeout=10)
            assert not thread.is_alive()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers are not forked from this process")
    def test_pooled_generation_forks_after_the_product(self, monkeypatch):
        # The product is slowed so that the pool forks while it runs; the
        # fork waits for it (a forked BLAS call may hold its locks), and the
        # generation equals the 1-worker one bitwise. A hang ends the run.
        def slow(fn, *args, **kw):
            time.sleep(0.3)
            out = fn(*args, **kw)
            PRODUCTS_DONE.append(True)
            return out

        monkeypatch.setattr(optimizers, "_beside", partial(optimizers._beside, slow))
        arch = Architecture((5, 40, 40, 1), NeuronMode.RECURRENT)
        env = SwingUpParams(max_steps=20)
        generations = []
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            for workers in (1, 2):
                if workers > 1:
                    monkeypatch.setattr(harness, "_mean_scores", _scores_forked_after_the_product)
                PRODUCTS_DONE.clear()
                es = CmaEs(np.zeros(count_parameters(arch)), sigma0=0.5, popsize=16, seed=0)
                x = es.ask()
                assert not PRODUCTS_DONE
                f = evaluate_population(arch, env, x, [0], workers=workers)
                es.tell(f)
                generations.append((f, es.mean, es.cov, es.p_sigma, es.p_c, es.sigma))
        finally:
            faulthandler.cancel_dump_traceback_later()
        for serial, pooled in zip(*generations):
            assert np.array_equal(serial, pooled)

    def test_checkpoint_round_trip_mid_run(self, tmp_path):
        # A small population next to n: the lazy eigendecomposition cadence of
        # the literature would skip generations here, so any eigensystem
        # state kept across generations would have to survive the round trip.
        cfg = experiment([5, 10, 1], total_generations=12, ga_generations=1, ga_pop=4,
                         cmaes_pop=4, cmaes_sigma0=0.3)
        runner = PipelineRunner(cfg.pipeline(), 96, np.full(96, 0.5))
        for _ in range(4):
            runner.step(_deterministic_eval)
        assert runner.stage == "cmaes" and runner.optimizer.generation == 3
        clone = checkpoint_round_trip(tmp_path, cfg, runner)
        es, es_clone = runner.optimizer, clone.optimizer
        for _ in range(5):
            x, x_clone = es.ask(), es_clone.ask()
            assert np.array_equal(x, x_clone)
            es.tell(sphere(x))
            es_clone.tell(sphere(x_clone))
            assert np.array_equal(es.cov, es_clone.cov)
            assert es.sigma == es_clone.sigma


class TestOpenEs:
    def test_population_even_required(self):
        with pytest.raises(ConfigError):
            OpenEs(np.zeros(3), popsize=7)

    def test_mirrored_pairs(self):
        es = OpenEs(np.full(4, 2.0), sigma=0.1, popsize=10, seed=0)
        x = es.ask()
        for i in range(0, 10, 2):
            np.testing.assert_allclose(x[i] + x[i + 1], 2 * es.center, atol=1e-12)

    def test_zero_update_on_equal_fitnesses(self):
        es = OpenEs(np.ones(6), popsize=16, seed=2)
        before = es.center.copy()
        es.ask()
        es.tell(np.full(16, 7.7))
        assert np.array_equal(es.center, before)

    def test_monotone_improvement_on_sphere(self):
        # Statistical over 5 seeds: center fitness improves over 200 generations.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            es = OpenEs(rng.normal(0, 1, 10), sigma=0.1, lr=0.05, popsize=32,
                        seed=seed)
            start = sphere(es.center)
            for _ in range(200):
                x = es.ask()
                es.tell(sphere(x))
            assert sphere(es.center) > start

    def test_average_ranks_match_brute_force_with_ties(self):
        def brute_force(f):
            # Rank 1 + number of smaller values, plus half of the other ties.
            return np.array([1 + np.sum(f < v) + (np.sum(f == v) - 1) / 2 for v in f])

        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            f = rng.integers(-3, 4, n) * rng.choice([1.0, 0.1])  # few distinct values: ties
            ranks = average_ranks(f)
            assert ranks.dtype == np.float64
            assert np.array_equal(ranks, brute_force(f))
        assert np.array_equal(average_ranks(np.array([2.0, -1.0, 2.0, 5.0, 2.0])),
                              [3.0, 1.0, 3.0, 5.0, 3.0])

    def test_nan_rejected(self):
        es = OpenEs(np.zeros(3), popsize=4, seed=0)
        es.ask()
        with pytest.raises(DomainError):
            es.tell([np.nan, 0, 0, 0])

    def test_tell_before_ask_rejected(self):
        es = OpenEs(np.zeros(3), popsize=4, seed=0)
        with pytest.raises(DomainError, match=r"tell\(\) before ask\(\)"):
            es.tell(np.zeros(4))


def _deterministic_eval(candidates, generation):
    return sphere(candidates)


class TestPipeline:
    def cfg(self, **kw):
        base = dict(
            total_generations=20, ga_generations=10, ga_pop=16, cmaes_pop=8,
            eval_every=5, eval_episodes=4, seed=0,
        )
        base.update(kw)
        return PipelineConfig(**base)

    def test_pure_ga_boundary(self):
        cfg = self.cfg(total_generations=10, ga_generations=10)
        result = PipelineRunner(cfg, 5, np.full(5, 2.0)).run(_deterministic_eval)
        assert all(rec.stage == "ga" for rec in result.history)
        assert len(result.history) == 10
        with pytest.raises(DomainError, match="already finished"):
            result.step(_deterministic_eval)
        assert len(result.history) == 10

    def test_history_bookkeeping(self):
        cfg = self.cfg()
        evals = []

        def periodic(genome):
            evals.append(genome.copy())
            return sphere(genome), 0.0

        result = PipelineRunner(cfg, 5, np.zeros(5)).run(_deterministic_eval, periodic)
        assert len(result.history) == 20
        gens_with_eval = [
            rec.generation for rec in result.history
            if not np.isnan(rec.periodic_eval_mean)
        ]
        assert gens_with_eval == [0, 5, 10, 15]
        stages = [rec.stage for rec in result.history]
        assert stages[:10] == ["ga"] * 10 and stages[10:] == ["cmaes"] * 10

    def test_champion_is_best_periodic_eval(self):
        cfg = self.cfg()
        result = PipelineRunner(cfg, 5, np.full(5, 3.0)).run(
            _deterministic_eval, lambda g: (sphere(g), 0.0),
        )
        assert result.champion_eval_mean == pytest.approx(sphere(result.champion))

    def test_full_determinism(self):
        histories = []
        for _ in range(2):
            result = PipelineRunner(self.cfg(), 6, np.full(6, 1.5)).run(
                _deterministic_eval, lambda g: (sphere(g), 0.0),
            )
            histories.append(
                [(r.generation, r.stage, r.best_fitness, r.mean_fitness,
                  r.std_fitness, r.periodic_eval_mean) for r in result.history]
            )
        assert histories[0] == histories[1]

    def test_stage_handoff_uses_ga_best(self):
        cfg = self.cfg(total_generations=11)
        runner = PipelineRunner(cfg, 5, np.full(5, 2.0))
        seen = []

        def recording_eval(candidates, generation):
            seen.append((candidates.copy(), sphere(candidates)))
            return seen[-1][1]

        for _ in range(10):
            runner.step(recording_eval)
        assert runner.stage == "cmaes"
        # The CMA-ES mean starts at the GA-stage candidate of highest
        # training fitness, the first one on ties.
        candidates = np.concatenate([c for c, _ in seen])
        fitnesses = np.concatenate([f for _, f in seen])
        assert np.array_equal(runner.optimizer.mean, candidates[np.argmax(fitnesses)])
        assert runner.best_fitness == -np.inf

    @pytest.mark.parametrize("total", [10, 20])
    def test_run_without_periodic_eval_returns_stage_best(self, total):
        # Pure GA, or GA then CMA-ES: the champion is the current stage's
        # candidate of highest training fitness.
        cfg = self.cfg(total_generations=total, ga_generations=10)
        first = 10 if total > 10 else 0
        seen = []

        def recording_eval(candidates, generation):
            f = sphere(candidates)
            if generation >= first:
                seen.append((candidates.copy(), f))
            return f

        result = PipelineRunner(cfg, 5, np.full(5, 2.0)).run(recording_eval)
        candidates = np.concatenate([c for c, _ in seen])
        fitnesses = np.concatenate([f for _, f in seen])
        i = np.argmax(fitnesses)
        assert np.array_equal(result.champion, candidates[i])
        assert result.champion_eval_mean == fitnesses[i]

    def test_openes_pipeline_stage(self):
        cfg = PipelineConfig(
            total_generations=5, optimizer_kind="openes", openes_pop=8,
            eval_every=2, seed=1,
        )
        result = PipelineRunner(cfg, 4, np.zeros(4)).run(_deterministic_eval)
        assert all(rec.stage == "openes" for rec in result.history)

    def test_pipeline_beats_pure_ga_on_sphere(self):
        # Head-to-head: 10 GA + 40 CMA-ES vs 50 GA, dim 50, >= 4/5 seeds.
        wins = 0
        for seed in range(5):
            rng = np.random.default_rng(seed + 100)
            x0 = rng.normal(0, 1, 50)
            pipe = PipelineRunner(
                PipelineConfig(total_generations=50, ga_generations=10,
                               ga_pop=64, cmaes_pop=16, seed=seed),
                50, x0,
            ).run(_deterministic_eval)
            ga = GeneticAlgorithm(x0, popsize=64, seed=seed)
            ga_best = -np.inf
            for _ in range(50):
                f = _deterministic_eval(ga.ask(), 0)
                ga_best = max(ga_best, f.max())
                ga.tell(f)
            pipe_best = max(r.best_fitness for r in pipe.history)
            if pipe_best > ga_best:
                wins += 1
        assert wins >= 4

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(total_generations=5, ga_generations=10)

    @pytest.mark.parametrize("field, value", [
        ("ga_pop", 0), ("ga_pop", 1), ("cmaes_pop", 0), ("cmaes_pop", 1),
        ("openes_pop", 0), ("openes_pop", 1), ("eval_episodes", 0),
        ("openes_pop", 3), ("ga_elite_frac", 0.97), ("ga_elite_frac", -0.1),
        ("ga_mutation_std", 0.0), ("ga_mutation_std", -1.0), ("cmaes_sigma0", 0.0),
        ("openes_sigma", 0.0), ("openes_sigma", float("nan")),
    ])
    def test_bad_size_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            self.cfg(**{field: value})

    def test_two_candidates_are_enough(self):
        cfg = self.cfg(ga_pop=2, cmaes_pop=2, openes_pop=2, eval_episodes=1)
        result = PipelineRunner(cfg, 3, np.zeros(3)).run(_deterministic_eval)
        assert len(result.history) == 20

    @pytest.mark.parametrize("kind, steps", [("ga-cmaes", 7), ("ga-cmaes", 10),
                                             ("ga-cmaes", 13), ("openes", 7)])
    def test_runner_checkpoint_round_trip(self, tmp_path, kind, steps):
        # In the GA stage, at the hand-over to CMA-ES and in it, and in OpenES.
        cfg = experiment([5, 1], optimizer_kind=kind, total_generations=20,
                         ga_generations=10, ga_pop=16, cmaes_pop=8, openes_pop=8,
                         eval_every=5, eval_episodes=4)
        runner = PipelineRunner(cfg.pipeline(), 36, np.zeros(36))

        def periodic(genome):
            return sphere(genome), 0.0

        for _ in range(steps):
            runner.step(_deterministic_eval, periodic)
        clone = checkpoint_round_trip(tmp_path, cfg, runner)
        assert clone.stage == runner.stage
        assert list(map(repr, clone.history)) == list(map(repr, runner.history))  # NaNs
        for _ in range(20 - steps):
            runner.step(_deterministic_eval, periodic)
            clone.step(_deterministic_eval, periodic)
        assert runner.finished and clone.finished
        a = [(r.best_fitness, r.mean_fitness) for r in runner.history]
        b = [(r.best_fitness, r.mean_fitness) for r in clone.history]
        assert a == b
        assert np.array_equal(runner.champion, clone.champion)
        assert runner.champion_eval_mean == clone.champion_eval_mean
