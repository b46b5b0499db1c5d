import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rollout_oracle as oracle
from evounits import network
from evounits.architecture import Architecture
from evounits.errors import DomainError
from evounits.harness import evaluate_population
from evounits.neural_unit import (
    NeuronMode,
    layer_step_recurrent,
    layer_step_simple,
)
from unit_oracle import (
    NeuronParams,
    activate_recurrent,
    activate_simple,
    output_nonlinearity,
)
from test_rollout_golden import NOISY_ENV, SIZES, staggered_population

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
state_vals = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def recurrent_params(values):
    return NeuronParams(NeuronMode.RECURRENT, np.asarray(values, dtype=float))


def simple_params(a, b):
    return NeuronParams(NeuronMode.SIMPLE, np.array([[a, b]]))


class TestActivateRecurrent:
    def test_all_zero_params(self):
        out, h = activate_recurrent(recurrent_params(np.zeros((2, 3))), 0.7, 0.3)
        assert out == 0.0 and h == 0.0

    def test_bias_only_rows_ignore_inputs(self):
        p = recurrent_params([[0, 0, 0.8], [0, 0, 0.8]])
        for x, h in [(0.0, 0.0), (1.0, -1.0), (5.0, 0.3)]:
            out, h_new = activate_recurrent(p, x, h)
            assert out == pytest.approx(math.tanh(0.8), abs=1e-15)
            assert h_new == pytest.approx(math.tanh(0.8), abs=1e-15)

    def test_identity_rows(self):
        p = recurrent_params([[1, 0, 0], [0, 1, 0]])
        out, h_new = activate_recurrent(p, 0.5, -0.25)
        assert out == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert h_new == pytest.approx(math.tanh(-0.25), abs=1e-15)

    @given(
        vals=st.lists(finite, min_size=6, max_size=6),
        x=finite,
        h=state_vals,
    )
    @settings(max_examples=200)
    def test_outputs_bounded(self, vals, x, h):
        p = recurrent_params(np.array(vals).reshape(2, 3))
        out, h_new = activate_recurrent(p, x, h)
        assert -1.0 <= out <= 1.0
        assert -1.0 <= h_new <= 1.0

    @given(vals=st.lists(finite, min_size=6, max_size=6), x=finite, h=state_vals)
    @settings(max_examples=50)
    def test_deterministic(self, vals, x, h):
        p = recurrent_params(np.array(vals).reshape(2, 3))
        assert activate_recurrent(p, x, h) == activate_recurrent(p, x, h)

    def test_state_locality(self):
        # Two different units: each result depends only on its own inputs.
        p1 = recurrent_params([[1, 2, 3], [4, 5, 6]])
        p2 = recurrent_params([[-1, 0.5, 0], [2, -2, 1]])
        r1 = activate_recurrent(p1, 0.4, 0.1)
        r2 = activate_recurrent(p2, -0.9, 0.8)
        assert activate_recurrent(p1, 0.4, 0.1) == r1
        assert activate_recurrent(p2, -0.9, 0.8) == r2

    @given(a=finite, b=finite, x=finite)
    @settings(max_examples=100)
    def test_reduces_to_simple_when_state_decoupled(self, a, b, x):
        p = recurrent_params([[a, 0, b], [0, 0, 0]])
        out, _ = activate_recurrent(p, x, 0.6)
        assert out == activate_simple(simple_params(a, b), x)

    def test_rejects_nonfinite(self):
        p = recurrent_params(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            activate_recurrent(p, float("nan"), 0.0)
        with pytest.raises(DomainError):
            activate_recurrent(p, 0.0, float("inf"))
        with pytest.raises(DomainError):
            NeuronParams(NeuronMode.RECURRENT, np.full((2, 3), np.nan))

    def test_rejects_wrong_mode(self):
        with pytest.raises(DomainError):
            activate_recurrent(simple_params(1, 0), 0.0, 0.0)


class TestActivateSimple:
    def test_zero_params(self):
        assert activate_simple(simple_params(0, 0), 5.0) == 0.0

    def test_odd_at_origin(self):
        assert activate_simple(simple_params(1, 0), 0.0) == 0.0

    def test_scale_and_bias(self):
        assert activate_simple(simple_params(2, -1), 1.0) == pytest.approx(
            math.tanh(1.0), abs=1e-15
        )

    @given(a=st.floats(min_value=0.0, max_value=5.0), b=finite,
           x1=finite, x2=finite)
    @settings(max_examples=100)
    def test_monotone_for_positive_scale(self, a, b, x1, x2):
        lo, hi = sorted((x1, x2))
        p = simple_params(a, b)
        assert activate_simple(p, lo) <= activate_simple(p, hi)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            NeuronParams(NeuronMode.SIMPLE, np.zeros((2, 3)))


class TestOutputNonlinearity:
    def test_trivial_values(self):
        assert output_nonlinearity(0.0) == 0.0

    @given(raw=finite)
    @settings(max_examples=100)
    def test_ranges(self, raw):
        assert -1.0 <= output_nonlinearity(raw) <= 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            output_nonlinearity(float("nan"))


class TestLayerStepsMatchScalarOracle:
    def test_elementwise_equal(self):
        rng = np.random.default_rng(0)
        n = 5000
        values = rng.normal(0, 3, (n, 2, 3))
        x = rng.normal(0, 3, n)
        h = rng.uniform(-1, 1, n)
        buf = np.stack([np.empty(n), h])
        layer_step_recurrent(np.moveaxis(values, (1, 2), (0, 1)), x, buf, np.empty(n))
        out, h_new = buf
        want = [activate_recurrent(recurrent_params(v), xi, hi)
                for v, xi, hi in zip(values, x, h)]
        assert np.array_equal(out, [w[0] for w in want])
        assert np.array_equal(h_new, [w[1] for w in want])

        ab = values[:, 0, :2]
        simple_out = np.empty((1, n))
        layer_step_simple(ab.T, x, simple_out)
        assert np.array_equal(
            simple_out[0], [activate_simple(simple_params(a, b), xi) for (a, b), xi in zip(ab, x)]
        )

    def test_state_in_place_over_steps(self):
        # The step reads a layer's state from its state plane and writes the
        # new state over it; every step must still match the scalar oracle.
        rng = np.random.default_rng(1)
        rows, n = 7, 33
        values = rng.normal(0, 2, (rows, n, 2, 3))
        units = [recurrent_params(v) for v in values.reshape(-1, 2, 3)]
        planes = np.zeros((2, rows, n))
        tmp = np.empty((rows, n))
        want_h = [0.0] * len(units)
        for _ in range(6):
            x = rng.normal(0, 2, (rows, n))
            layer_step_recurrent(np.moveaxis(values, (2, 3), (0, 1)), x, planes, tmp)
            out = planes[0]
            want = [activate_recurrent(u, xi, hi)
                    for u, xi, hi in zip(units, x.ravel(), want_h)]
            assert np.array_equal(out.ravel(), [w[0] for w in want])
            assert np.array_equal(planes[1].ravel(), [w[1] for w in want])
            want_h = [w[1] for w in want]


def test_block_products_with_rows_out_of_order(monkeypatch):
    # Where rows are not stable each row's product runs at its own place in
    # its 128-row block, while ended rows' places in the live block are
    # taken by rows from the end of the batch, often from another block.
    monkeypatch.setattr(network, "rows_stable", lambda *shape: False)
    arch = Architecture(SIZES, NeuronMode.RECURRENT, weight_seed=1)
    genomes = staggered_population(arch, np.random.default_rng(2), chunks=2)
    moved_across = []
    keep = network.BatchedPolicy.keep

    def spy(net, order):
        keep(net, order)
        live = np.arange(net.rows.size)
        moved_across.append(np.any(net.rows // network.PRODUCT_ROWS
                                   != live // network.PRODUCT_ROWS))

    monkeypatch.setattr(network.BatchedPolicy, "keep", spy)
    want, _ = oracle.population_fitness(arch, NOISY_ENV, genomes, [3])
    assert np.array_equal(evaluate_population(arch, NOISY_ENV, genomes, [3]), want)
    assert any(moved_across)
