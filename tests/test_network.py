import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evounits.architecture import Architecture, count_parameters, sample_weights
from evounits.cartpole import BatchedSwingUp, SwingUpParams
from evounits.errors import CheckpointError, ConfigError, DomainError
from evounits.genome import decode, initial_genome
from evounits.harness import _fill_order
from evounits.network import BatchedPolicy
from evounits.neural_unit import NeuronMode
from evounits.rundir import load_champion, save_champion, weight_checksum
from genomes import flat_genome
from rollout_oracle import FullBatchPolicy

REFERENCE_CHAMPION = Path(__file__).resolve().parent.parent / "artifacts" / \
    "reference_champion.json"


def edited_reference(tmp_path, edit):
    """A copy of the reference champion file after ``edit`` of its JSON."""
    payload = json.loads(REFERENCE_CHAMPION.read_text())
    edit(payload)
    path = tmp_path / "champ.json"
    path.write_text(json.dumps(payload))
    return path


def rec_arch(sizes=(5, 128, 64, 1), seed=1):
    return Architecture(tuple(sizes), NeuronMode.RECURRENT, weight_seed=seed)


def simple_arch(sizes=(5, 8, 1), seed=1):
    return Architecture(tuple(sizes), NeuronMode.SIMPLE, weight_seed=seed)


class TestCountParameters:
    @pytest.mark.parametrize(
        "sizes,mode,expected",
        [
            ((5, 128, 64, 1), NeuronMode.SIMPLE, 396),
            ((24, 128, 64, 4), NeuronMode.SIMPLE, 440),
            ((5, 128, 64, 1), NeuronMode.RECURRENT, 1188),
            ((5, 32, 32, 1), NeuronMode.PLAIN_TANH, 1281),
            ((5, 128, 64, 1), NeuronMode.PLAIN_TANH, 9089),
        ],
    )
    def test_published_architectures(self, sizes, mode, expected):
        assert count_parameters(Architecture(sizes, mode)) == expected


class TestWeights:
    def test_shapes_and_neuron_count(self):
        a = rec_arch()
        weights = sample_weights(a)
        assert [w.shape for w in weights] == [(128, 5), (64, 128), (1, 64)]
        assert sum(a.layer_sizes) == 198

    def test_same_seed_same_checksum(self):
        a = rec_arch(seed=42)
        assert weight_checksum(sample_weights(a)) == weight_checksum(sample_weights(a))

    def test_different_seed_different_weights(self):
        c1 = weight_checksum(sample_weights(rec_arch(seed=1)))
        c2 = weight_checksum(sample_weights(rec_arch(seed=2)))
        assert c1 != c2

    def test_adding_layers_keeps_earlier_weights(self):
        small = rec_arch((5, 8, 1), seed=9)
        big = rec_arch((5, 8, 1, 4), seed=9)
        w_small = sample_weights(small)
        w_big = sample_weights(big)
        for ws, wb in zip(w_small, w_big):
            assert np.array_equal(ws, wb)

    def test_weight_std_scales_draws(self):
        base = Architecture((4, 4), NeuronMode.SIMPLE, weight_seed=3, weight_std=0.5)
        wide = Architecture((4, 4), NeuronMode.SIMPLE, weight_seed=3, weight_std=1.0)
        np.testing.assert_allclose(
            sample_weights(wide)[0], 2.0 * sample_weights(base)[0]
        )


class TestPolicyForward:
    def test_genome_length_check(self):
        a = simple_arch((2, 2, 1))
        BatchedPolicy(a, np.zeros(10))
        with pytest.raises(ConfigError, match="10"):
            BatchedPolicy(a, np.zeros(9))
        with pytest.raises(ConfigError, match="10"):
            BatchedPolicy(a, np.zeros((3, 9)))

    def test_zero_genome_zero_everything(self):
        a = rec_arch()
        net = BatchedPolicy(a, initial_genome(a))
        for obs in (np.zeros(5), np.ones(5), np.linspace(-1, 1, 5)):
            assert np.array_equal(net.forward(obs[None]), [[0.0]])
        for planes in net.planes:
            assert not planes.any()

    def test_simple_unit_scale_one_matches_plain_tanh(self):
        # Units [1, 0] on every neuron reduce to a tanh net over frozen weights.
        rng = np.random.default_rng(0)
        a = simple_arch((3, 4, 2), seed=11)
        genome = np.tile([1.0, 0.0], sum(a.layer_sizes))
        net = BatchedPolicy(a, genome)

        ffnn_arch = Architecture((3, 4, 2), NeuronMode.PLAIN_TANH)
        structured = [(w, np.zeros(w.shape[0])) for w in net.weights]
        ffnn = BatchedPolicy(ffnn_arch, flat_genome(structured))
        for _ in range(10):
            obs = rng.normal(size=(1, 3))
            # Input units apply an extra tanh to the raw observation.
            np.testing.assert_allclose(
                net.forward(obs), ffnn.forward(np.tanh(obs)), atol=1e-12
            )

    def test_recurrent_state_feedback_and_reset(self):
        a = rec_arch((2, 3, 1))
        rng = np.random.default_rng(5)
        genome = rng.normal(size=count_parameters(a))
        net = BatchedPolicy(a, genome)
        obs = np.array([[0.3, -0.7]])
        first = net.forward(obs)
        second = net.forward(obs)
        assert not np.array_equal(first, second)  # state feedback moved it
        # A policy serves one batch of episodes; a fresh one starts from zero.
        net = BatchedPolicy(a, genome)
        assert not any(planes.any() for planes in net.planes)
        assert np.array_equal(net.forward(obs), first)

    def test_action_bounds(self):
        a = rec_arch((4, 6, 2))
        rng = np.random.default_rng(8)
        net = BatchedPolicy(a, rng.normal(0, 3, (2, count_parameters(a))))
        for _ in range(50):
            action = net.forward(rng.normal(0, 2, (2, 4)))
            assert action.shape == (2, 2)
            assert np.all(np.abs(action) <= 1.0)

    def test_nonfinite_obs_rejected(self):
        # A non-finite observation gives a non-finite action, which the env
        # rejects before it touches the state.
        a = rec_arch((5, 4, 1))
        net = BatchedPolicy(a, np.random.default_rng(3).normal(size=count_parameters(a)))
        env = BatchedSwingUp(SwingUpParams())
        obs = env.reset([0])
        obs[0, 1] = np.nan
        with pytest.raises(DomainError, match="finite"):
            env.step(net.forward(obs)[:, 0])

    def test_seeded_reproducibility(self):
        a = rec_arch((3, 5, 2), seed=77)
        g = np.random.default_rng(4).normal(size=count_parameters(a))
        obs_seq = np.random.default_rng(6).normal(size=(20, 1, 3))
        runs = []
        for _ in range(2):
            net = BatchedPolicy(a, g)
            runs.append(np.stack([net.forward(o) for o in obs_seq]))
        assert np.array_equal(runs[0], runs[1])


class TestPlainTanhPolicy:
    def test_zero_genome_zero_action(self):
        a = Architecture((4, 3, 2), NeuronMode.PLAIN_TANH)
        net = BatchedPolicy(a, initial_genome(a))
        assert np.array_equal(net.forward(np.ones((1, 4))), np.zeros((1, 2)))

    def test_single_weight_reference(self):
        a = Architecture((1, 1), NeuronMode.PLAIN_TANH)
        net = BatchedPolicy(a, np.array([1.0, 0.0]))
        assert net.forward(np.array([[0.5]]))[0, 0] == pytest.approx(
            np.tanh(0.5), abs=1e-15
        )

    def test_hidden_permutation_invariance(self):
        a = Architecture((3, 4, 2), NeuronMode.PLAIN_TANH)
        rng = np.random.default_rng(9)
        g = rng.normal(size=count_parameters(a))
        (w1, b1), (w2, b2) = decode(g, a)
        perm = [1, 0, 2, 3]
        permuted = flat_genome([(w1[perm], b1[perm]), (w2[:, perm], b2)])
        obs = rng.normal(size=3)
        out = BatchedPolicy(a, np.stack([g, permuted])).forward(np.tile(obs, (2, 1)))
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)


class TestBatchedPolicy:
    @pytest.mark.parametrize("mode", list(NeuronMode))
    def test_matches_single_instance(self, mode):
        a = Architecture((3, 6, 2), mode, weight_seed=21)
        rng = np.random.default_rng(12)
        genomes = rng.normal(0, 1, (4, count_parameters(a)))
        batched = BatchedPolicy(a, genomes)
        singles = [FullBatchPolicy(a, g) for g in genomes]
        for _ in range(5):
            obs = rng.normal(size=(1, 3))
            batch_out = batched.forward(np.tile(obs, (4, 1)))
            for i, pol in enumerate(singles):
                np.testing.assert_allclose(batch_out[i], pol.forward(obs)[0], atol=1e-12)

    @pytest.mark.parametrize("mode", list(NeuronMode))
    def test_forward_after_keep(self, mode):
        a = Architecture((3, 6, 2), mode, weight_seed=21)
        rng = np.random.default_rng(13)
        genomes = rng.normal(0, 1, (4, count_parameters(a)))
        batched = BatchedPolicy(a, genomes)
        singles = [FullBatchPolicy(a, g) for g in genomes]
        obs_seq = rng.normal(size=(6, 1, 3))
        for obs in obs_seq[:3]:
            batched.forward(np.tile(obs, (4, 1)))
            for pol in singles:
                pol.forward(obs)
        order = _fill_order(np.array([False, True, False, False]))
        assert order.tolist() == [0, 3, 2]
        batched.keep(order)
        kept = [singles[i] for i in order]
        for obs in obs_seq[3:]:
            batch_out = batched.forward(np.tile(obs, (3, 1)))
            assert batch_out.shape == (3, 2)
            for i, pol in enumerate(kept):
                np.testing.assert_allclose(batch_out[i], pol.forward(obs)[0], atol=1e-12)


    def test_keep_fills_only_the_ended_places(self):
        # A middle row and the last row end in the same step: the last live
        # row takes the middle place, and no other place changes.
        a = Architecture((3, 6, 2), NeuronMode.RECURRENT, weight_seed=21)
        rng = np.random.default_rng(14)
        genomes = rng.normal(0, 1, (6, count_parameters(a)))
        batched = BatchedPolicy(a, genomes)
        singles = [FullBatchPolicy(a, g) for g in genomes]
        obs_seq = rng.normal(size=(6, 1, 3))
        for obs in obs_seq[:3]:
            batched.forward(np.tile(obs, (6, 1)))
            for pol in singles:
                pol.forward(obs)
        params = [p.copy() for p in batched.params]
        planes = [p.copy() for p in batched.planes]
        order = _fill_order(np.array([False, False, True, False, False, True]))
        assert order.tolist() == [0, 1, 4, 3]
        batched.keep(order)
        assert batched.rows.tolist() == [0, 1, 4, 3]
        for before, after in zip(params, batched.params):
            assert np.array_equal(after, before[..., order, :])
            assert np.array_equal(after[..., [0, 1, 3], :], before[..., [0, 1, 3], :])
        for before, after in zip(planes, batched.planes):
            # Only the states move: forward writes the outputs before it reads them.
            assert np.array_equal(after[1, :4], before[1, order])
            assert np.array_equal(after[1, [0, 1, 3, 5]], before[1, [0, 1, 3, 5]])
            assert np.array_equal(after[0], before[0])
        kept = [singles[i] for i in order]
        for obs in obs_seq[3:]:
            batch_out = batched.forward(np.tile(obs, (4, 1)))
            for i, pol in enumerate(kept):
                np.testing.assert_allclose(batch_out[i], pol.forward(obs)[0], atol=1e-12)

    @pytest.mark.parametrize("mode", [NeuronMode.RECURRENT, NeuronMode.SIMPLE])
    @pytest.mark.parametrize("live", [512, 300, 100, 1])
    def test_forward_allocates_no_layer_plane(self, mode, live):
        # Unit steps and every product, the leftover slice too, write into
        # the policy's own planes and scratch: a warm forward allocates the
        # action it returns and little else, at any live row count.
        a = Architecture((5, 128, 64, 1), mode, weight_seed=1)
        rng = np.random.default_rng(15)
        net = BatchedPolicy(a, rng.normal(0, 1, (512, count_parameters(a))))
        net.keep(np.arange(live))
        obs = rng.normal(size=(live, 5))
        net.forward(obs)  # checks the products' shapes once per process
        tracemalloc.start()
        try:
            action = net.forward(obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert action.shape == (live, 1)
        assert peak <= action.nbytes + 16 * 1024

    def test_keep_rejects_boolean_mask(self):
        # A mask would be read as row indices 1 and 0.
        a = rec_arch((5, 4, 1))
        net = BatchedPolicy(a, np.zeros((3, count_parameters(a))))
        with pytest.raises(DomainError, match="integer"):
            net.keep(np.array([True, False, True]))
        assert net.rows.tolist() == [0, 1, 2]

class TestChampionCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        a = rec_arch((3, 4, 1), seed=5)
        genome = np.random.default_rng(0).normal(size=count_parameters(a))
        path = tmp_path / "champ.json"
        save_champion(path, a, genome, eval_info={"mean": 1.0})
        assert "output_kinds" not in json.loads(path.read_text())["arch"]
        arch2, genome2, info = load_champion(path)
        assert arch2 == a
        assert np.array_equal(genome, genome2)
        assert info["mean"] == 1.0
        again = tmp_path / "again.json"
        save_champion(again, arch2, genome2, eval_info=info)
        assert again.read_bytes() == path.read_bytes()

    def test_crash_mid_write_keeps_previous(self, tmp_path, monkeypatch):
        from evounits import rundir

        a = rec_arch((3, 4, 1), seed=5)
        genome = np.random.default_rng(0).normal(size=count_parameters(a))
        path = tmp_path / "champion.json"
        save_champion(path, a, genome)

        def crashing_dump(obj, fh):
            fh.write('{"schema_version": 1, "gen')
            raise OSError("disk full")

        monkeypatch.setattr(rundir.json, "dump", crashing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_champion(path, a, genome + 1.0)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["champion.json"]
        assert np.array_equal(load_champion(path)[1], genome)
        assert json.loads(path.read_text())["kind"] == "champion"

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_champion(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        a = rec_arch((3, 4, 1), seed=5)
        path = tmp_path / "champ.json"
        save_champion(path, a, initial_genome(a))
        payload = json.loads(path.read_text())
        payload["weight_checksum"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="mutated"):
            load_champion(path)

    def test_genome_length_mismatch_rejected(self, tmp_path):
        a = rec_arch((3, 4, 1), seed=5)
        path = tmp_path / "champ.json"
        save_champion(path, a, initial_genome(a))
        payload = json.loads(path.read_text())
        payload["genome"] = payload["genome"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_champion(path)

    def test_nonfinite_genome_rejected(self, tmp_path):
        a = rec_arch((3, 4, 1), seed=5)
        genome = initial_genome(a)
        genome[7] = np.nan
        path = tmp_path / "champ.json"
        save_champion(path, a, genome)
        with pytest.raises(CheckpointError, match="genome"):
            load_champion(path)

    def test_eval_not_a_mapping_rejected(self, tmp_path):
        path = edited_reference(tmp_path, lambda p: p.update(eval=[930.6]))
        with pytest.raises(CheckpointError, match="eval: must be a mapping"):
            load_champion(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update(schema_version=2), "schema_version: "),
        (lambda p: p.update(kind="runner"), "kind: "),
        (lambda p: p["arch"].pop("weight_std"), "arch.weight_std: missing"),
        # Each of these loaded as something else, or failed without naming its field.
        (lambda p: p.update(schema_version=True), "schema_version: must be an integer, got True"),
        (lambda p: p.update(genome=True), "genome: must be a list"),
        (lambda p: p.update(genome="abc"), "genome: must be a list"),
        (lambda p: p.update(weight_checksum=5), "weight_checksum: must be"),
        # Loaded with other weights, since a null checksum skipped the check.
        (lambda p: p.update(weight_checksum=None) or p["arch"].update(weight_seed=7),
         "weight_checksum: must be a string"),
        (lambda p: p.update(arch="recurrent"), "arch: must be a mapping"),
        (lambda p: p.update(arch=[5, 128, 64, 1]), "arch: must be a mapping"),
        (lambda p: p.update(arch=5), "arch: must be a mapping"),
    ], ids=["schema-2", "foreign-kind", "no-weight-std", "schema-true", "genome-true",
            "genome-string", "checksum-int", "checksum-null", "arch-string", "arch-list",
            "arch-number"])
    def test_refused_field_named_with_path(self, tmp_path, edit, message):
        path = edited_reference(tmp_path, edit)
        with pytest.raises(CheckpointError) as exc:
            load_champion(path)
        assert message in str(exc.value) and str(path) in str(exc.value)

    def test_plain_tanh_checksum_must_be_null(self, tmp_path):
        # The baseline freezes no weights, so a checksum would check nothing.
        a = Architecture((3, 4, 1), NeuronMode.PLAIN_TANH, weight_seed=5)
        path = tmp_path / "champ.json"
        save_champion(path, a, initial_genome(a))
        assert load_champion(path)[0] == a
        payload = json.loads(path.read_text())
        payload["weight_checksum"] = weight_checksum(sample_weights(rec_arch((3, 4, 1), 5)))
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="weight_checksum: must be null") as exc:
            load_champion(path)
        assert str(path) in str(exc.value)

    def older_file(self, tmp_path, kinds):
        """A champion file in the older format, which lists one output
        nonlinearity per output."""
        a = rec_arch((3, 4, 1), seed=5)
        genome = np.random.default_rng(0).normal(size=count_parameters(a))
        path = tmp_path / "champ.json"
        save_champion(path, a, genome)
        payload = json.loads(path.read_text())
        payload["arch"]["output_kinds"] = kinds
        path.write_text(json.dumps(payload))
        return path, a, genome

    def test_older_file_with_tanh_outputs_loads(self, tmp_path):
        path, a, genome = self.older_file(tmp_path, ["tanh"])
        arch2, genome2, _ = load_champion(path)
        assert arch2 == a
        assert np.array_equal(genome, genome2)

    def test_non_tanh_output_kind_rejected(self, tmp_path):
        path, _, _ = self.older_file(tmp_path, ["sigmoid"])
        with pytest.raises(CheckpointError, match=r"arch\.output_kinds"):
            load_champion(path)

    # Each value once loaded as something else: a 128-unit layer, a bare
    # TypeError from the weight sampler, a weight-checksum mismatch.
    @pytest.mark.parametrize("field, value", [
        ("layer_sizes", [5, 128.9, 64, 1]), ("weight_seed", 1.0), ("weight_std", True),
    ])
    def test_mistyped_arch_field_named(self, tmp_path, field, value):
        path = edited_reference(tmp_path, lambda p: p["arch"].update({field: value}))
        with pytest.raises(CheckpointError, match=rf"arch\.{field}: must be"):
            load_champion(path)
