import numpy as np
import pytest

from evounits.architecture import Architecture, count_parameters
from evounits.errors import ConfigError
from evounits.genome import decode, initial_genome
from evounits.neural_unit import NeuronMode
from genomes import flat_genome


def arch(sizes, mode, seed=0):
    return Architecture(tuple(sizes), mode, weight_seed=seed)


class TestLayout:
    def test_recurrent_neuron_row_major(self):
        a = Architecture((1, 1), NeuronMode.RECURRENT)
        g = np.arange(1.0, 13.0)
        layers = decode(g, a)
        np.testing.assert_array_equal(layers[0][0], [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(layers[1][0], [[7, 8, 9], [10, 11, 12]])

    def test_simple_neurons_in_order(self):
        a = Architecture((1, 1), NeuronMode.SIMPLE)
        layers = decode(np.array([1.0, 2.0, 3.0, 4.0]), a)
        np.testing.assert_array_equal(layers[0], [[1, 2]])
        np.testing.assert_array_equal(layers[1], [[3, 4]])

    def test_ffnn_weight_then_bias(self):
        a = Architecture((1, 1), NeuronMode.PLAIN_TANH)
        (w, b), = decode(np.array([5.0, -2.0]), a)
        assert w[0, 0] == 5.0 and b[0] == -2.0

    def test_layout_golden(self):
        # Frozen layout order: changing it would break existing checkpoints.
        a = Architecture((2, 1), NeuronMode.SIMPLE)
        first, second = decode(np.arange(1.0, 7.0), a)
        np.testing.assert_array_equal(first, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(second, [[5, 6]])


class TestRoundTrip:
    @pytest.mark.parametrize("mode", list(NeuronMode))
    def test_bit_exact_round_trip(self, mode):
        a = arch([3, 4, 2], mode)
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = rng.normal(0, 10, count_parameters(a))
            g2 = flat_genome(decode(g, a))
            assert np.array_equal(g, g2)

    def test_decode_encode_identity_on_structures(self):
        a = arch([2, 2, 1], NeuronMode.RECURRENT)
        rng = np.random.default_rng(3)
        g = rng.normal(size=count_parameters(a))
        structured = decode(g, a)
        again = decode(flat_genome(structured), a)
        for s1, s2 in zip(structured, again):
            assert np.array_equal(s1, s2)


class TestInitialGenome:
    def test_zero_default_recurrent(self):
        a = arch([5, 128, 64, 1], NeuronMode.RECURRENT)
        g = initial_genome(a)
        assert g.shape == (1188,)
        assert not g.any()

    def test_zero_default_simple(self):
        g = initial_genome(arch([2, 2, 1], NeuronMode.SIMPLE))
        assert g.shape == (10,) and not g.any()


class TestErrors:
    def test_length_mismatch_names_counts(self):
        a = arch([2, 2, 1], NeuronMode.SIMPLE)
        with pytest.raises(ConfigError, match="10"):
            decode(np.zeros(9), a)
