"""Workload set-up and the one operation each workload times.

Every workload uses the cartpole-recurrent preset's architecture
(5-128-64-1, recurrent units) with frozen weights from weight seed 1 and the
default swing-up task. The workload seed is the run's master seed, so it
drives the optimizer draws and the training and evaluation episode seeds.
NOTES.md in this directory says why each workload is in the benchmark.
"""

from __future__ import annotations

import copy
import dataclasses
from pathlib import Path

import numpy as np

PRESET = "cartpole-recurrent"
WEIGHT_SEED = 1
CHAMPION = Path("artifacts") / "reference_champion.json"
# Warm-up rollouts are this many steps long: enough to touch every code path
# and BLAS once, short next to a timed operation.
WARM_STEPS = 50
EVAL_EPISODES = 100
# Population of the single GA generation that hands the champion to CMA-ES.
# Its best candidate is the unmutated start point, which the set-up checks.
HANDOVER_POP = 2


@dataclasses.dataclass(frozen=True)
class Spec:
    stage: str  # "ga", "cmaes" or "eval"; also the key of its digests in expected.json
    workers: int
    nominal_op_s: float  # sizes the traced run; not a pass/fail figure
    # Operations repeat the stage's first `cycle` generations: after that
    # many, the runner goes back to its state at the end of set-up. The live
    # fraction rises with the generation (GA 0.16 to 0.36 over generations
    # 0-9, CMA-ES 0.66 to 0.96 over 0-19), so without the cycle a run on a
    # slower host would reach fewer generations and also read fewer live
    # steps per operation. None for the eval workload, whose operations are
    # all the same evaluation.
    cycle: int | None
    # OpenBLAS threads, or None for the library default. With the default two
    # threads on two cores, OpenBLAS spin-waits whenever another process takes
    # a core, and one-process workloads slow down up to tenfold at random; one
    # thread costs under 10% when the machine is quiet. ga-pool keeps the
    # default because that oversubscription is the defect it exists to show.
    blas_threads: int | None = 1


WORKLOADS = {
    "ga-explore": Spec("ga", 1, 3.0, 6),
    "cmaes-refine": Spec("cmaes", 1, 1.1, 10),
    "eval-champion": Spec("eval", 1, 0.6, None),
    "ga-pool": Spec("ga", 2, 8.0, 6, blas_threads=None),
}


class SetupError(Exception):
    """The workload cannot be built as specified."""


class PipelineWorkload:
    """A PipelineRunner on the preset; one operation is one ``step``.

    The GA stage starts from the zero genome. The CMA-ES stage is reached
    through a one-generation GA stage seeded at the reference champion, the
    way ``evounits train`` hands over between stages. After ``spec.cycle``
    steps the runner is restored to its state at the end of set-up, so the
    operations repeat the same generations.
    """

    def __init__(self, mods, root: Path, seed: int, spec: Spec):
        self.mods = mods
        overrides = {
            "seeds": {"master_seed": seed, "weight_seed": WEIGHT_SEED},
            "run": {"workers": spec.workers},
        }
        if spec.stage == "cmaes":
            overrides["optimizer"] = {"ga_generations": 1, "ga_pop": HANDOVER_POP}
        self.cfg = mods["config"].from_preset(PRESET, overrides)
        self.arch = self.cfg.architecture()
        self.env = self.cfg.env_params()
        self.evaluator = mods["harness"].PopulationEvaluator(
            self.arch, self.env,
            episodes_per_candidate=self.cfg.episodes_per_candidate,
            train_seed_base=self.cfg.master_seed,
            workers=self.cfg.workers,
        )
        if spec.stage == "cmaes":
            arch, x0, _ = mods["network"].load_champion(root / CHAMPION)
            if arch != self.arch:
                raise SetupError(f"champion architecture {arch} is not the preset's")
        else:
            x0 = mods["genome"].initial_genome(self.arch)
        dim = mods["architecture"].count_parameters(self.arch)
        self.runner = mods["optimizers"].PipelineRunner(self.cfg.pipeline(), dim, x0)
        self.handover_ok = True
        if spec.stage == "cmaes":
            self.runner.step(self.evaluator)
            self.handover_ok = self.runner.stage == "cmaes" and np.array_equal(
                self.runner.optimizer.mean, x0
            )
        chunk = getattr(mods["harness"], "CHUNK_SIZE", 128)
        warm_env = dataclasses.replace(self.env, max_steps=WARM_STEPS)
        mods["harness"].evaluate_population(
            self.arch, warm_env, np.tile(x0, (chunk, 1)),
            self.evaluator.seeds_for_generation(0),
        )
        self.cycle = spec.cycle
        self._start = copy.deepcopy(self.runner)  # about 5 ms for CMA-ES
        self._steps = 0
        self.last = None

    def _evaluate(self, candidates, generation):
        fitness = self.evaluator(candidates, generation)
        self.last = (np.array(candidates), generation, np.asarray(fitness))
        return fitness

    def op(self):
        """One generation; returns its fitness vector."""
        if self._steps == self.cycle:
            self.runner = copy.deepcopy(self._start)
            self._steps = 0
        self.runner.step(self._evaluate)
        self._steps += 1
        return self.last[2]

    def checkpoint(self, path: Path):
        self.mods["cli"]._save_runner_checkpoint(path, self.cfg, path.parent, self.runner)

    def serial_matches(self):
        """Re-score the first chunk of the last generation with one worker and
        compare bitwise: fitness must not depend on the worker count."""
        candidates, generation, fitness = self.last
        chunk = getattr(self.mods["harness"], "CHUNK_SIZE", 128)
        serial = self.mods["harness"].evaluate_population(
            self.arch, self.env, candidates[:chunk],
            self.evaluator.seeds_for_generation(generation), workers=1,
        )
        return np.array_equal(serial, fitness[:chunk])


class EvalWorkload:
    """Held-out evaluation of the reference champion; one operation is one
    100-episode ``harness.evaluate`` on the final-eval seeds."""

    handover_ok = True

    def __init__(self, mods, root: Path, seed: int, spec: Spec):
        self.mods = mods
        self.arch, self.genome, _ = mods["network"].load_champion(root / CHAMPION)
        self.env = mods["cartpole"].SwingUpParams()
        self.base_seed = (
            seed + mods["harness"].EVAL_SEED_OFFSET + mods["cli"].FINAL_EVAL_SEED_SUBOFFSET
        )
        warm_env = dataclasses.replace(self.env, max_steps=WARM_STEPS)
        mods["harness"].evaluate(
            self.genome, self.arch, warm_env, EVAL_EPISODES, self.base_seed
        )
        self.last = None

    def op(self):
        """One evaluation; returns its per-episode scores."""
        self.last = self.mods["harness"].evaluate(
            self.genome, self.arch, self.env, EVAL_EPISODES, self.base_seed,
            genome_id="reference_champion",
        )
        return np.asarray(self.last.scores, dtype=np.float64)

    def checkpoint(self, path: Path):
        self.mods["harness"].write_eval_json(path, self.last)


def build(name, mods, root: Path, seed: int):
    spec = WORKLOADS[name]
    cls = EvalWorkload if spec.stage == "eval" else PipelineWorkload
    return cls(mods, root, seed, spec)
