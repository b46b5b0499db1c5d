"""Derivative-free optimizers behind one ask/tell interface, plus the staged
GA -> CMA-ES training pipeline.

Convention throughout: fitness is maximized.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .schema import Real, at_least, check_fields, check_value, positive

log = logging.getLogger(__name__)

# Rows of C per step of CMA-ES's elementwise covariance update.
UPDATE_ROWS = 128


def _check_fitnesses(fitnesses, expected):
    f = np.asarray(fitnesses, dtype=np.float64)
    if f.shape != (expected,):
        raise DomainError(f"fitnesses: expected {expected}, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise DomainError("fitnesses: non-finite value received; evaluator bug")
    return f


class GeneticAlgorithm:
    """Truncation-selection GA: elites survive unchanged, offspring are
    elites plus elementwise Gaussian noise. No crossover.

    Between generations it holds only the first ``parents`` rows of
    ``elites`` and its generator: the start point alone until the first
    ``tell``, then the ``n_elite`` fittest candidates. ``ask`` breeds.
    """

    # Attributes a run checkpoint saves; the rest follow from the config.
    STATE = ("elites", "parents", "rng")
    SYMMETRIC = ()

    def __init__(self, x0, popsize=512, elite_frac=0.125, mutation_std=1.0, seed=None):
        self.dim = len(x0)
        self.popsize = check_value("popsize", popsize, int, at_least=2)
        elite_frac = check_value("elite_frac", elite_frac, float, positive=True)
        self.n_elite = max(1, int(round(self.popsize * elite_frac)))
        if self.n_elite >= self.popsize:
            raise ConfigError("elite_frac: must leave room for offspring")
        self.mutation_std = check_value("mutation_std", mutation_std, float, positive=True)
        self.rng = np.random.default_rng(seed)
        self.elites = np.tile(np.asarray(x0, dtype=np.float64), (self.n_elite, 1))
        self.parents = 1
        self._pending = None

    def ask(self):
        """The parents, then each child a random parent plus noise. Noise is
        drawn in blocks of ``n_elite`` rows, which give the stream of one
        draw, and picking among one parent draws no bits: each population is
        bitwise what one draw of every child's parent, then one of all their
        noise, would give."""
        pop = np.empty((self.popsize, self.dim))
        k = self.parents
        pop[:k] = self.elites[:k]
        # "clip" takes straight into ``out``; "raise" would buffer the children.
        np.take(self.elites, self.rng.integers(0, k, size=self.popsize - k), axis=0,
                out=pop[k:], mode="clip")
        for start in range(k, self.popsize, self.n_elite):
            block = pop[start:start + self.n_elite]
            block += self.rng.normal(0.0, self.mutation_std, size=block.shape)
        pop.flags.writeable = False  # tell selects from what was evaluated
        self._pending = pop
        return pop

    def tell(self, fitnesses):
        if self._pending is None:
            raise DomainError("tell() before ask()")
        f = _check_fitnesses(fitnesses, self.popsize)
        order = np.argsort(-f, kind="stable")
        np.take(self._pending, order[: self.n_elite], axis=0, out=self.elites)
        self._pending = None
        self.parents = self.n_elite


PRODUCT_THREAD = "evounits-product"


def _beside(fn, *args, **kwargs):
    """A Future of ``fn(*args, **kwargs)``, run on a thread of its own beside
    whatever the caller does next. The thread ends, and drops the arguments,
    as soon as ``fn`` returns; no fork happens while it runs."""
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=PRODUCT_THREAD)
    try:
        return pool.submit(fn, *args, **kwargs)
    finally:
        pool.shutdown(wait=False)


def _join_products():
    """Wait for every product in flight, so that a forked process (a worker
    of ``evaluate_population``'s pool) never copies BLAS halfway through one."""
    for thread in threading.enumerate():
        if thread.name.startswith(PRODUCT_THREAD):
            thread.join()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_join_products)


class CmaEs:
    """Covariance matrix adaptation evolution strategy, canonical constants.

    Rank-based selection over the best half of the population, rank-one and
    rank-mu covariance updates, cumulative step-size adaptation. No fitness
    shaping beyond ranking (no weight decay penalty). ``tell`` updates
    ``cov`` in place.

    C^-1/2 = (basis / scale) basis' does not depend on the fitness, so
    ``ask`` submits it to a thread of its own (see :func:`_beside`) and it
    runs while the population is scored; ``tell`` takes its result. The
    arithmetic is the same as computed in line, so every bit is too.
    """

    STATE = ("mean", "sigma", "cov", "p_sigma", "p_c", "generation", "rng")
    SYMMETRIC = ("cov",)  # saved as the upper triangle

    def __init__(self, x0, sigma0=0.5, popsize=None, seed=None):
        x0 = np.asarray(x0, dtype=np.float64)
        n = self.dim = len(x0)
        sigma0 = check_value("sigma0", sigma0, float, positive=True)
        self.popsize = (4 + int(3 * math.log(n)) if popsize is None
                        else check_value("popsize", popsize, int, at_least=2))
        lam = self.popsize
        mu = lam // 2
        w = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        self.weights = w / w.sum()
        self.mu = mu
        self.mueff = 1.0 / np.sum(self.weights**2)

        self.cc = (4 + self.mueff / n) / (n + 4 + 2 * self.mueff / n)
        self.cs = (self.mueff + 2) / (n + self.mueff + 5)
        self.c1 = 2 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1 - self.c1,
            2 * (self.mueff - 2 + 1 / self.mueff) / ((n + 2) ** 2 + self.mueff),
        )
        self.damps = 1 + 2 * max(0.0, math.sqrt((self.mueff - 1) / (n + 1)) - 1) + self.cs
        self.chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n**2))

        self.mean = x0.copy()
        self.sigma = sigma0
        self.cov = np.eye(n)
        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        self.generation = 0
        self.rng = np.random.default_rng(seed)
        self._pending = None
        self._floor_logged = False

    def _update_eigensystem(self):
        """Eigenbasis and axis scales (square-rooted eigenvalues) of C. A
        repaired C may fall under the floor again by rounding, so only the
        first repair is logged."""
        evals, basis = np.linalg.eigh(self.cov)
        floor = max(evals.max(), 0.0) * 1e-14 + 1e-300
        if evals[0] < floor:
            if not self._floor_logged:
                log.warning("covariance eigenvalue floor hit (min %.3e); repairing, "
                            "logged once per CMA-ES stage", evals[0])
                self._floor_logged = True
            evals = np.maximum(evals, floor)
            self.cov = (basis * evals) @ basis.T
        return basis, np.sqrt(evals)

    def ask(self):
        basis, scale = self._update_eigensystem()
        n = self.dim
        z = self.rng.standard_normal((self.popsize, n))
        # The order of allocation sets the peak RSS: the product's operands
        # and output come while the scaled basis is alive, and that is freed
        # before the population is scored, whose arrays then reuse its memory.
        scaled = basis * scale
        product = _beside(np.matmul, basis / scale, basis.T, out=np.empty((n, n)))
        y = z @ scaled.T
        del scaled
        self._pending = y, product
        return self.mean + self.sigma * y

    def tell(self, fitnesses):
        if self._pending is None:
            raise DomainError("tell() before ask()")
        f = _check_fitnesses(fitnesses, self.popsize)
        y, product = self._pending
        self._pending = None
        inv_sqrt = product.result()
        n = self.dim

        order = np.argsort(-f, kind="stable")
        y_sel = y[order[: self.mu]]
        y_w = self.weights @ y_sel
        self.mean = self.mean + self.sigma * y_w

        self.p_sigma = (1 - self.cs) * self.p_sigma + math.sqrt(
            self.cs * (2 - self.cs) * self.mueff
        ) * (inv_sqrt @ y_w)
        norm_ps = np.linalg.norm(self.p_sigma)
        h_sigma = norm_ps / math.sqrt(
            1 - (1 - self.cs) ** (2 * (self.generation + 1))
        ) / self.chi_n < 1.4 + 2 / (n + 1)
        self.p_c = (1 - self.cc) * self.p_c + h_sigma * math.sqrt(
            self.cc * (2 - self.cc) * self.mueff
        ) * y_w

        # C = (1 - c1 - cmu) C + c1 (p_c p_c' + delta_h C) + cmu rank_mu, then
        # (C + C') / 2, in place but in that order, so every bit is kept. The
        # rank-one term is formed on blocks of rows, and inv_sqrt, read no
        # more, holds rank_mu, so no n×n array is allocated here.
        rank_mu = np.matmul(y_sel.T * self.weights, y_sel, out=inv_sqrt)
        delta_h = (1 - h_sigma) * self.cc * (2 - self.cc)
        for lo in range(0, n, UPDATE_ROWS):
            cov = self.cov[lo:lo + UPDATE_ROWS]
            block = np.multiply(self.p_c[lo:lo + UPDATE_ROWS, None], self.p_c)
            block += delta_h * cov
            block *= self.c1
            cov *= 1 - self.c1 - self.cmu
            cov += block
        rank_mu *= self.cmu
        self.cov += rank_mu
        np.add(self.cov, self.cov.T, out=rank_mu)
        np.divide(rank_mu, 2.0, out=self.cov)
        self.sigma *= math.exp((self.cs / self.damps) * (norm_ps / self.chi_n - 1))
        self.generation += 1


def average_ranks(values):
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


class OpenEs:
    """Evolution strategy with mirrored Gaussian perturbations and
    centered-rank fitness shaping; plain gradient ascent on the center.
    """

    STATE = ("center", "rng")
    SYMMETRIC = ()

    def __init__(self, x0, sigma=0.1, lr=0.01, popsize=128, seed=None):
        self.popsize = check_value("popsize", popsize, int, at_least=2)
        if self.popsize % 2 != 0:
            raise ConfigError("popsize: mirrored sampling needs an even population")
        self.dim = len(x0)
        self.sigma = check_value("sigma", sigma, float, positive=True)
        self.lr = check_value("lr", lr, float, positive=True)
        self.center = np.asarray(x0, dtype=np.float64).copy()
        self.rng = np.random.default_rng(seed)
        self._pending = None

    def ask(self):
        half = self.rng.standard_normal((self.popsize // 2, self.dim))
        eps = np.empty((self.popsize, self.dim))
        eps[0::2] = half
        eps[1::2] = -half
        self._pending = eps
        return self.center + self.sigma * eps

    def tell(self, fitnesses):
        if self._pending is None:
            raise DomainError("tell() before ask()")
        f = _check_fitnesses(fitnesses, self.popsize)
        eps = self._pending
        self._pending = None
        # Average ranks on ties so a flat landscape yields a zero update.
        shaped = (average_ranks(f) - 1) / (self.popsize - 1) - 0.5
        grad = shaped @ eps
        self.center = self.center + self.lr / (self.popsize * self.sigma) * grad


@dataclass(frozen=True)
class PipelineConfig:
    """Staged training schedule and optimizer hyperparameters."""

    total_generations: int = at_least(1)
    ga_generations: int = 100
    ga_pop: int = at_least(2, 512)
    ga_elite_frac: float = positive(0.125)
    ga_mutation_std: float = positive(1.0)
    cmaes_pop: int = at_least(2, 128)
    cmaes_sigma0: float = positive(0.5)
    optimizer_kind: str = "ga-cmaes"  # or "openes"
    openes_pop: int = at_least(2, 128)
    openes_sigma: float = positive(0.1)
    openes_lr: float = positive(0.01)
    eval_every: int = at_least(1, 50)
    eval_episodes: int = at_least(1, 64)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.optimizer_kind not in ("ga-cmaes", "openes"):
            raise ConfigError(f"optimizer_kind: unknown kind {self.optimizer_kind!r}")
        if self.optimizer_kind == "ga-cmaes" and not (
            0 < self.ga_generations <= self.total_generations
        ):
            raise ConfigError(
                "ga_generations: must be in 1..total_generations "
                f"(got {self.ga_generations} vs {self.total_generations})"
            )
        if max(1, round(self.ga_pop * self.ga_elite_frac)) >= self.ga_pop:
            raise ConfigError("ga_elite_frac: must leave room for offspring")
        if self.openes_pop % 2:
            raise ConfigError("openes_pop: mirrored sampling needs an even population")


@dataclass
class GenerationRecord:
    generation: int
    stage: str
    best_fitness: Real
    mean_fitness: Real
    std_fitness: Real
    periodic_eval_mean: Real = float("nan")
    periodic_eval_std: Real = float("nan")
    wallclock: Real = 0.0


class PipelineRunner:
    """Drives the staged search and keeps all state needed to resume.

    ``best``/``best_fitness`` record the current stage's fittest candidate,
    the first on ties; before its first generation, its start point at -inf.
    Evaluation callables are supplied to :meth:`run`, so between generations
    the runner holds only search state, which a run checkpoint records.
    """

    def __init__(self, cfg: PipelineConfig, dim: int, x0):
        self.cfg = cfg
        self.dim = dim
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (dim,):
            raise ConfigError(f"x0: expected shape ({dim},), got {x0.shape}")
        self._opt_seeds = np.random.SeedSequence(cfg.seed).spawn(2)
        self.start_stage("openes" if cfg.optimizer_kind == "openes" else "ga", x0)
        self.generation = 0
        self.history: list[GenerationRecord] = []
        self.best = x0.copy()
        self.best_fitness = -np.inf
        self.champion = x0.copy()
        self.champion_eval_mean = -np.inf

    @property
    def finished(self) -> bool:
        return self.generation >= self.cfg.total_generations

    def _maybe_switch_stage(self):
        if (
            self.stage == "ga"
            and self.generation >= self.cfg.ga_generations
            and self.generation < self.cfg.total_generations
        ):
            self.best_fitness = -np.inf
            self.start_stage("cmaes", self.best)

    def start_stage(self, stage, x0):
        """Enter ``stage`` with its optimizer freshly seeded at ``x0``."""
        cfg = self.cfg
        if stage not in (("openes",) if cfg.optimizer_kind == "openes" else ("ga", "cmaes")):
            raise DomainError(f"stage: {stage!r} is no stage of {cfg.optimizer_kind!r}")
        if stage == "openes":
            optimizer = OpenEs(x0, sigma=cfg.openes_sigma, lr=cfg.openes_lr,
                               popsize=cfg.openes_pop, seed=self._opt_seeds[0])
        elif stage == "ga":
            optimizer = GeneticAlgorithm(
                x0, popsize=cfg.ga_pop, elite_frac=cfg.ga_elite_frac,
                mutation_std=cfg.ga_mutation_std, seed=self._opt_seeds[0],
            )
        else:
            optimizer = CmaEs(x0, sigma0=cfg.cmaes_sigma0, popsize=cfg.cmaes_pop,
                              seed=self._opt_seeds[1])
        self.stage, self.optimizer = stage, optimizer

    def step(self, eval_population, periodic_eval=None):
        """Run one generation; returns its GenerationRecord."""
        if self.finished:
            raise DomainError("pipeline already finished")
        t0 = time.perf_counter()
        candidates = self.optimizer.ask()
        fitnesses = np.asarray(eval_population(candidates, self.generation),
                               dtype=np.float64)
        i_best = int(np.argmax(fitnesses))
        gen_best = candidates[i_best]
        self.optimizer.tell(fitnesses)
        if fitnesses[i_best] > self.best_fitness:
            self.best_fitness = float(fitnesses[i_best])
            self.best = np.array(gen_best)
        rec = GenerationRecord(
            generation=self.generation,
            stage=self.stage,
            best_fitness=float(fitnesses[i_best]),
            mean_fitness=float(fitnesses.mean()),
            std_fitness=float(fitnesses.std()),
        )
        if periodic_eval is not None and self.generation % self.cfg.eval_every == 0:
            mean, std = periodic_eval(gen_best)
            rec.periodic_eval_mean = float(mean)
            rec.periodic_eval_std = float(std)
            if mean > self.champion_eval_mean:
                self.champion_eval_mean = float(mean)
                self.champion = np.array(gen_best)
        rec.wallclock = time.perf_counter() - t0
        self.history.append(rec)
        self.generation += 1
        self._maybe_switch_stage()
        return rec

    def run(self, eval_population, periodic_eval=None, on_generation=None):
        """Step to the end of the schedule; returns the runner, whose
        ``champion``, ``champion_eval_mean`` and ``history`` hold the
        outcome."""
        while not self.finished:
            rec = self.step(eval_population, periodic_eval)
            if on_generation is not None:
                on_generation(self, rec)
        if self.champion_eval_mean == -np.inf:
            # No periodic evaluation ran; fall back to the best training fitness.
            self.champion = np.array(self.best)
            self.champion_eval_mean = self.best_fitness
        return self

