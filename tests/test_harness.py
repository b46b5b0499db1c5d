import functools
import os

import numpy as np
import pytest

from evounits import harness, network, rundir
from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import SwingUpParams
from evounits.errors import ConfigError
from evounits.genome import decode, initial_genome
from evounits.harness import (
    PopulationEvaluator,
    evaluate,
    evaluate_population,
    probe_layer,
)
from evounits.neural_unit import NeuronMode
from evounits.rundir import write_eval_json, write_probe
from genomes import flat_genome
from unit_oracle import NeuronParams, activate_recurrent, activate_simple


def rec_arch(sizes=(5, 8, 4, 1), seed=1):
    return Architecture(tuple(sizes), NeuronMode.RECURRENT, weight_seed=seed)


def simple_arch(sizes=(5, 8, 4, 1), seed=1):
    return Architecture(tuple(sizes), NeuronMode.SIMPLE, weight_seed=seed)


ENV = SwingUpParams()


class TestEvaluate:
    def test_single_episode_report(self):
        a = rec_arch()
        report = evaluate(initial_genome(a), a, ENV, 1, 42)
        assert report.n_episodes == 1
        assert report.std == 0.0
        assert report.mean == report.scores[0]

    def test_reproducible(self):
        a = rec_arch()
        g = np.random.default_rng(0).normal(size=count_parameters(a))
        r1 = evaluate(g, a, ENV, 5, 100)
        r2 = evaluate(g, a, ENV, 5, 100)
        assert r1.scores == r2.scores

    def test_matches_serial_rollouts(self):
        a = rec_arch()
        g = np.random.default_rng(3).normal(size=count_parameters(a))
        report = evaluate(g, a, ENV, 3, 7)
        for k, score in enumerate(report.scores):
            traj = []
            evaluate(g, a, ENV, 1, 7 + k, trajectory=traj)
            assert score == sum(row[-1] for row in traj)

    def test_zero_genome_scores_nothing(self):
        a = rec_arch()
        report = evaluate(initial_genome(a), a, ENV, 20, 0)
        assert report.mean < 1.0

    def test_mean_std_recomputable(self):
        a = simple_arch()
        g = np.random.default_rng(1).normal(size=count_parameters(a))
        report = evaluate(g, a, ENV, 4, 9)
        scores = np.array(report.scores)
        assert report.mean == pytest.approx(scores.mean())
        assert report.std == pytest.approx(scores.std())

    def test_bad_episode_count(self):
        a = rec_arch()
        with pytest.raises(ConfigError):
            evaluate(initial_genome(a), a, ENV, 0, 0)


class TestArchMustFitTask:
    # The swing-up task observes 5 values and takes 1 action.
    @pytest.mark.parametrize("sizes", [(4, 8, 1), (5, 8, 2), (4, 8, 3)])
    def test_evaluation_rejects_wrong_io(self, sizes):
        a = rec_arch(sizes)
        with pytest.raises(ConfigError, match="arch.layer_sizes"):
            evaluate(initial_genome(a), a, ENV, 1, 0)
        with pytest.raises(ConfigError, match="arch.layer_sizes"):
            evaluate_population(a, ENV, np.zeros((2, count_parameters(a))), [0])
        traj = []
        with pytest.raises(ConfigError, match="arch.layer_sizes"):
            evaluate(initial_genome(a), a, ENV, 1, 0, trajectory=traj)
        assert traj == []

    def test_probes_accept_any_io(self):
        a = rec_arch((4, 8, 3))
        assert probe_layer(initial_genome(a), a, 2, n_points=5).outputs.shape == (5, 3)


class TestPopulationEvaluator:
    def test_order_matches_individual_scores(self):
        a = rec_arch()
        rng = np.random.default_rng(2)
        genomes = rng.normal(0, 1, (6, count_parameters(a)))
        ev = PopulationEvaluator(a, ENV, train_seed_base=50)
        fits = ev(genomes, generation=3)
        seed = ev.seeds_for_generation(3)[0]
        for i, g in enumerate(genomes):
            solo = evaluate(g, a, ENV, 1, seed)
            assert fits[i] == solo.mean

    def test_negative_train_seed_base_rejected(self):
        with pytest.raises(ConfigError, match="^train_seed_base: must be at least 0, got -3"):
            PopulationEvaluator(rec_arch(), ENV, train_seed_base=-3)

    def test_seeds_advance_with_generation(self):
        ev = PopulationEvaluator(rec_arch(), ENV, episodes_per_candidate=2,
                                 train_seed_base=10)
        assert ev.seeds_for_generation(0) == [10, 11]
        assert ev.seeds_for_generation(1) == [12, 13]

    def test_chunking_invariant(self):
        # Fitness must not depend on which candidates share a batch.
        env = SwingUpParams(max_steps=200, reset_noise=1.0)
        for mode in NeuronMode:
            a = Architecture((5, 8, 4, 1), mode, weight_seed=1)
            genomes = np.random.default_rng(4).normal(0, 1, (300, count_parameters(a)))
            full = evaluate_population(a, env, genomes, [3])
            for cuts in ([10, 11, 200], [1, 129]):
                split = [evaluate_population(a, env, g, [3]) for g in np.split(genomes, cuts)]
                assert np.array_equal(np.concatenate(split), full), (mode, cuts)

    def test_two_workers_bitwise_equal_to_one(self):
        # Each worker takes a contiguous split of the rows and drops ended
        # episodes itself: 300 rows (three 128-row blocks) in halves, and a
        # population of 10, a single block, in splits of 3, 3 and 4.
        a = rec_arch()
        env = SwingUpParams(max_steps=200, reset_noise=1.0)
        for n, workers in ((300, 2), (10, 3)):
            genomes = np.random.default_rng(10).normal(0, 1, (n, count_parameters(a)))
            serial = evaluate_population(a, env, genomes, [3, 4], workers=1)
            pooled = evaluate_population(a, env, genomes, [3, 4], workers=workers)
            assert np.array_equal(pooled, serial), (n, workers)

    def test_two_workers_plain_tanh(self):
        # Plain-tanh candidates carry their own weights, so there are no
        # frozen-weight products to probe and the split is even.
        a = Architecture((5, 8, 1), NeuronMode.PLAIN_TANH, weight_seed=1)
        env = SwingUpParams(max_steps=200, reset_noise=1.0)
        genomes = np.random.default_rng(10).normal(0, 1, (7, count_parameters(a)))
        serial = evaluate_population(a, env, genomes, [3, 4], workers=1)
        pooled = evaluate_population(a, env, genomes, [3, 4], workers=2)
        assert np.array_equal(pooled, serial)
        assert network.worker_splits(a, 7, 2) == [0, 3, 7]

    def test_two_workers_without_buckets(self, monkeypatch):
        # Where a product's rows are not stable, each row runs at its batch
        # index in its 128-row block, in whichever even split it falls.
        monkeypatch.setattr(network, "rows_stable", lambda *shape: False)
        a = rec_arch()
        env = SwingUpParams(max_steps=200, reset_noise=1.0)
        genomes = np.random.default_rng(10).normal(0, 1, (300, count_parameters(a)))
        serial = evaluate_population(a, env, genomes, [3, 4], workers=1)
        pooled = evaluate_population(a, env, genomes, [3, 4], workers=2)
        assert np.array_equal(pooled, serial)

    def test_one_block_splits_between_workers(self, monkeypatch):
        # A 128-candidate CMA-ES generation is one block; where rows are not
        # stable, two workers still take half of it each, and the fitness is
        # the 1-worker one.
        monkeypatch.setattr(network, "rows_stable", lambda *shape: False)
        a = rec_arch()
        env = SwingUpParams(max_steps=50)
        genomes = np.random.default_rng(10).normal(0, 1, (128, count_parameters(a)))
        assert network.worker_splits(a, 128, 2) == [0, 64, 128]
        serial = evaluate_population(a, env, genomes, [3], workers=1)
        pooled = evaluate_population(a, env, genomes, [3], workers=2)
        assert np.array_equal(pooled, serial)

    def test_pool_workers_inherit_every_table(self, monkeypatch, tmp_path):
        # The parent checks every product's shape to choose the split, here
        # an even one, and caches the answers before it forks: a pooled call
        # equals the 1-worker call, and no worker checks, on the first call
        # or later.
        log = tmp_path / "checks"
        check = network.rows_stable.__wrapped__

        def logged_check(fan_in, fan_out, dtype):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return check(fan_in, fan_out, dtype)

        monkeypatch.setattr(network, "rows_stable", functools.cache(logged_check))
        a = rec_arch()
        env = SwingUpParams(max_steps=50)
        genomes = np.random.default_rng(10).normal(0, 1, (100, count_parameters(a)))
        pooled = [evaluate_population(a, env, genomes, [3], workers=2) for _ in range(2)]
        assert log.read_text().split() == [str(os.getpid())] * 3
        serial = evaluate_population(a, env, genomes, [3], workers=1)
        assert all(np.array_equal(p, serial) for p in pooled)

    def test_one_worker_probes_nothing_up_front(self, monkeypatch):
        # The serial path checks a shape only when a product needs it.
        monkeypatch.setattr(network, "rows_stable", lambda *shape: pytest.fail("checked"))
        assert network.worker_splits(rec_arch(), 300, 1) == [0, 300]

    @pytest.mark.parametrize("movable", [True, False])
    def test_workers_split_evenly(self, monkeypatch, movable):
        sizes, firsts = [], []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, splits, first_rows):
                splits, first_rows = list(splits), list(first_rows)
                sizes.append([len(g) for g in splits])
                firsts.append(first_rows)
                return map(fn, splits, first_rows)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        # Every shape's rows are stable, or none are: the split is even either way.
        monkeypatch.setattr(network, "rows_stable", lambda *shape: movable)
        a = rec_arch()
        env = SwingUpParams(max_steps=20)
        for n, workers in ((300, 2), (300, 4), (100, 2)):
            genomes = np.random.default_rng(10).normal(0, 1, (n, count_parameters(a)))
            evaluate_population(a, env, genomes, [3], workers=workers)
        assert sizes == [[150, 150], [75, 75, 75, 75], [50, 50]]
        assert firsts == [[0, 150], [0, 75, 150, 225], [0, 50]]


def scalar_sweep(unit, inputs):
    """Outputs and states of one unit stepped through ``inputs`` from a zero
    state by the scalar oracle; the state stays zero for simple units."""
    outputs, states, h = [], [], 0.0
    for x in inputs:
        if unit.mode is NeuronMode.RECURRENT:
            out, h = activate_recurrent(unit, float(x), h)
        else:
            out = activate_simple(unit, float(x))
        outputs.append(out)
        states.append(h)
    return outputs, states


class TestProbes:
    def test_zero_params_flat_traces(self):
        a = rec_arch()
        probe = probe_layer(initial_genome(a), a, layer=2)
        assert probe.outputs.shape == probe.states.shape == (1000, 4)
        assert not probe.outputs.any()
        assert not probe.states.any()

    def test_trace_lengths_and_bounds(self):
        a = rec_arch()
        g = np.random.default_rng(5).normal(0, 2, count_parameters(a))
        for layer in range(4):
            probe = probe_layer(g, a, layer)
            assert len(probe.inputs) == len(probe.outputs) == len(probe.states) == 1000
            assert probe.inputs[0] == -3.0 and probe.inputs[-1] == 3.0
            assert np.all(np.abs(probe.outputs) <= 1.0)
            assert np.all(np.abs(probe.states) <= 1.0)

    def test_simple_traces_monotone_no_states(self):
        a = simple_arch()
        g = np.random.default_rng(6).normal(0, 2, count_parameters(a))
        probe = probe_layer(g, a, 1)
        assert probe.states is None
        for i in range(probe.outputs.shape[1]):
            diffs = np.diff(probe.outputs[:, i])
            assert np.all(diffs >= 0) or np.all(diffs <= 0)

    def test_probe_locality(self):
        # Zeroing every other neuron's params leaves a neuron's trace unchanged.
        a = rec_arch()
        g = np.random.default_rng(7).normal(size=count_parameters(a))
        layers = decode(g, a)
        target = layers[1][2].copy()
        zeroed = [np.zeros_like(p) for p in layers]
        zeroed[1][2] = target
        full = probe_layer(g, a, 1)
        alone = probe_layer(flat_genome(zeroed), a, 1)
        assert np.array_equal(full.outputs[:, 2], alone.outputs[:, 2])
        assert np.array_equal(full.states[:, 2], alone.states[:, 2])
        assert full.divergence[2] == alone.divergence[2]

    def test_state_decoupled_matches_simple_activation(self):
        # Recurrent unit with state column and state row zeroed == tanh(a x + b).
        a = rec_arch((3, 2, 1))
        layers = [np.zeros((n, 2, 3)) for n in a.layer_sizes]
        layers[1][0] = [[1.5, 0.0, -0.3], [0.0, 0.0, 0.0]]
        g = flat_genome(layers)
        probe = probe_layer(g, a, 1)
        expected = np.tanh(1.5 * probe.inputs - 0.3)
        np.testing.assert_allclose(probe.outputs[:, 0], expected, atol=1e-12)
        assert not probe.states.any()

    @pytest.mark.parametrize("layer", range(4))
    @pytest.mark.parametrize("mode", [NeuronMode.RECURRENT, NeuronMode.SIMPLE])
    def test_matches_scalar_oracle(self, mode, layer):
        # Each unit stepped alone through the scalar oracle, upward and then
        # downward from a zero state, gives the probe's bits.
        a = Architecture((5, 8, 4, 1), mode, weight_seed=1)
        g = np.random.default_rng(11).normal(0, 2, count_parameters(a))
        probe = probe_layer(g, a, layer)
        for i, values in enumerate(decode(g, a)[layer]):
            unit = NeuronParams(mode, np.atleast_2d(values))
            up, up_states = scalar_sweep(unit, probe.inputs)
            down, _ = scalar_sweep(unit, probe.inputs[::-1])
            assert probe.outputs[:, i].tolist() == up
            if mode is NeuronMode.RECURRENT:
                assert probe.states[:, i].tolist() == up_states
            assert probe.divergence[i] == max(abs(u - d) for u, d in zip(up, down[::-1]))

    def test_invalid_layer_rejected(self):
        a = rec_arch()
        with pytest.raises(ConfigError):
            probe_layer(initial_genome(a), a, 7)


class TestCompareOrderings:
    def test_simple_mode_divergence_exactly_zero(self):
        a = simple_arch()
        g = np.random.default_rng(8).normal(0, 2, count_parameters(a))
        for layer in range(4):
            assert probe_layer(g, a, layer).divergence.max() == 0.0

    def test_state_decoupled_recurrent_divergence_zero(self):
        a = rec_arch((2, 3, 1))
        layers = [np.zeros((n, 2, 3)) for n in a.layer_sizes]
        for p in layers:
            p[:, 0, 0] = 1.0  # pass-through output row, no state coupling
        assert probe_layer(flat_genome(layers), a, 1).divergence.max() == 0.0

    def test_state_coupled_neuron_diverges(self):
        a = rec_arch((1, 1))
        layers = [np.zeros((1, 2, 3)), np.zeros((1, 2, 3))]
        layers[0][0] = [[1.0, 2.0, 0.0], [1.0, 0.9, 0.0]]  # strong feedback
        assert probe_layer(flat_genome(layers), a, 0).divergence.max() > 0.0

    def test_plain_tanh_rejected(self):
        a = Architecture((5, 4, 1), NeuronMode.PLAIN_TANH)
        with pytest.raises(ConfigError, match="neuron_mode"):
            probe_layer(np.zeros(count_parameters(a)), a, 0)

    def test_layer_out_of_range_rejected(self):
        a = rec_arch()
        with pytest.raises(ConfigError, match="layer"):
            probe_layer(initial_genome(a), a, 4)

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_n_points_below_one_rejected(self, n_points):
        a = rec_arch()
        with pytest.raises(ConfigError, match="^n_points: must be at least 1"):
            probe_layer(initial_genome(a), a, 1, n_points)


class TestWriters:
    def test_eval_json_round_trip(self, tmp_path):
        import json

        a = rec_arch()
        report = evaluate(initial_genome(a), a, ENV, 2, 0)
        path = tmp_path / "eval.json"
        write_eval_json(path, report)
        data = json.loads(path.read_text())
        assert data["n_episodes"] == 2
        assert data["scores"] == report.scores

    def test_eval_json_crash_mid_write_keeps_previous(self, tmp_path, monkeypatch):
        import json

        a = rec_arch()
        report = evaluate(initial_genome(a), a, ENV, 2, 0)
        path = tmp_path / "eval.json"
        write_eval_json(path, report)

        def crashing_dump(obj, fh, **kwargs):
            fh.write('{"genome_id": "ini')
            raise OSError("disk full")

        monkeypatch.setattr(rundir.json, "dump", crashing_dump)
        with pytest.raises(OSError, match="disk full"):
            write_eval_json(path, evaluate(initial_genome(a), a, ENV, 3, 0))
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]
        assert json.loads(path.read_text())["scores"] == report.scores

    def test_trace_csv_shape_recurrent(self, tmp_path):
        a = rec_arch()
        g = np.random.default_rng(9).normal(size=count_parameters(a))
        path = write_probe(tmp_path, 2, probe_layer(g, a, 2))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1001
        assert len(lines[0].split(",")) == 1 + 2 * 4

    def test_trace_csv_omits_states_for_simple(self, tmp_path):
        a = simple_arch()
        path = write_probe(tmp_path, 2, probe_layer(initial_genome(a), a, 2))
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + 4
        assert not any(col.startswith("state") for col in header)
